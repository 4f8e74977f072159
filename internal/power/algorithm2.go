package power

import (
	"fmt"
	"io"

	"repro/internal/cell"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/ulp430"
	"repro/internal/vcd"
)

// Window is a captured stretch of per-cycle gate output values and
// activity annotations — the execution-trace slice Algorithm 2 operates
// on. Vals[0] holds the values preceding the window's first cycle;
// Vals[c] (c >= 1) the settled values of cycle c. Act[c] marks the gates
// the activity analysis considers toggled in cycle c (Act[0] is unused).
type Window struct {
	// Kinds is the cell kind of each gate column.
	Kinds []cell.Kind
	// Names is the gate instance name of each column (VCD emission).
	Names []string
	// Vals[c][g] is gate g's output in cycle c.
	Vals [][]logic.Trit
	// Act[c][g] is gate g's activity flag in cycle c.
	Act [][]bool
}

// Cycles returns the number of recorded cycles (excluding the preamble
// row).
func (w *Window) Cycles() int { return len(w.Vals) - 1 }

// Capture steps the system n cycles, recording every gate's output and
// activity flag. The system must not hit an unknown branch condition
// inside the window.
func Capture(sys *ulp430.System, n int) (*Window, error) {
	nl := sys.Sim.Netlist()
	w := &Window{
		Kinds: make([]cell.Kind, nl.NumCells()),
		Names: make([]string, nl.NumCells()),
	}
	for ci := 0; ci < nl.NumCells(); ci++ {
		w.Kinds[ci] = nl.Cell(netlist.CellID(ci)).Kind
		w.Names[ci] = nl.Cell(netlist.CellID(ci)).Name
	}
	row := func() []logic.Trit {
		r := make([]logic.Trit, nl.NumCells())
		for ci := 0; ci < nl.NumCells(); ci++ {
			r[ci] = sys.Sim.Val(nl.Cell(netlist.CellID(ci)).Out)
		}
		return r
	}
	w.Vals = append(w.Vals, row())
	w.Act = append(w.Act, make([]bool, nl.NumCells()))
	for c := 1; c <= n; c++ {
		sys.Step()
		if sys.JumpCondUnknown() {
			return nil, fmt.Errorf("power: unknown branch condition inside captured window (cycle %d)", c)
		}
		if err := sys.Err(); err != nil {
			return nil, err
		}
		w.Vals = append(w.Vals, row())
		act := make([]bool, nl.NumCells())
		for ci := 0; ci < nl.NumCells(); ci++ {
			act[ci] = sys.Sim.Active(nl.Cell(netlist.CellID(ci)).Out)
		}
		w.Act = append(w.Act, act)
	}
	return w, nil
}

// Assignment is one parity's fully assigned value trace (Algorithm 2's
// even or odd VCD).
type Assignment struct {
	// Vals is the value matrix after X assignment.
	Vals [][]logic.Trit
	// Parity is 0 for the even-maximizing assignment, 1 for odd.
	Parity int
}

// assign builds the VCD that maximizes power in cycles of the given
// parity (Algorithm 2 lines 4-17).
func assign(w *Window, lib *cell.Library, parity int) *Assignment {
	vals := make([][]logic.Trit, len(w.Vals))
	for c := range w.Vals {
		vals[c] = append([]logic.Trit(nil), w.Vals[c]...)
	}
	for c := 1; c < len(vals); c++ {
		if c%2 != parity {
			continue
		}
		for g := range w.Kinds {
			if !w.Act[c][g] {
				continue
			}
			prev, cur := w.Vals[c-1][g], w.Vals[c][g]
			switch {
			case prev == logic.X && cur == logic.X:
				first, second, _ := lib.MaxTransition(w.Kinds[g])
				vals[c-1][g] = first
				vals[c][g] = second
			case cur == logic.X && prev != logic.X:
				vals[c][g] = logic.Not(prev)
			case prev == logic.X && cur != logic.X:
				vals[c-1][g] = logic.Not(cur)
			}
		}
	}
	return &Assignment{Vals: vals, Parity: parity}
}

// powerTrace runs activity-based power analysis over an assignment,
// returning per-cycle power in mW (clock-pin energy and leakage
// included).
func powerTrace(w *Window, a *Assignment, m Model) []float64 {
	clkFJ := 0.0
	leakMW := 0.0
	for _, k := range w.Kinds {
		clkFJ += m.Lib.Params(k).EnergyClk
		leakMW += m.Lib.Params(k).LeakageNW * 1e-6
	}
	out := make([]float64, len(a.Vals))
	for c := 1; c < len(a.Vals); c++ {
		e := clkFJ
		for g, k := range w.Kinds {
			e += m.Lib.TransitionEnergy(k, a.Vals[c-1][g], a.Vals[c][g])
		}
		out[c] = m.PowerMW(e) + leakMW
	}
	return out
}

// AlgorithmTwo performs the paper's peak-power computation literally:
// build the even- and odd-maximizing assignments, run power analysis on
// each, and interleave even cycles from the even trace with odd cycles
// from the odd trace (Algorithm 2 lines 18-20). It returns the per-cycle
// peak power trace (index 0 unused) and the two assignments.
func AlgorithmTwo(w *Window, m Model) (peak []float64, even, odd *Assignment) {
	even = assign(w, m.Lib, 0)
	odd = assign(w, m.Lib, 1)
	pe := powerTrace(w, even, m)
	po := powerTrace(w, odd, m)
	peak = make([]float64, len(pe))
	for c := 1; c < len(pe); c++ {
		if c%2 == 0 {
			peak[c] = pe[c]
		} else {
			peak[c] = po[c]
		}
	}
	return peak, even, odd
}

// StreamingTrace computes the per-cycle bound the streaming analysis
// (cellBoundFJ's rule) produces for a captured window — used to verify
// that the literal Algorithm 2 and the streaming form agree exactly.
func StreamingTrace(w *Window, m Model) []float64 {
	clkFJ := 0.0
	leakMW := 0.0
	for _, k := range w.Kinds {
		clkFJ += m.Lib.Params(k).EnergyClk
		leakMW += m.Lib.Params(k).LeakageNW * 1e-6
	}
	out := make([]float64, len(w.Vals))
	for c := 1; c < len(w.Vals); c++ {
		e := clkFJ
		for g, k := range w.Kinds {
			e += cellBoundFJ(m.Lib, k, w.Vals[c-1][g], w.Vals[c][g], w.Act[c][g])
		}
		out[c] = m.PowerMW(e) + leakMW
	}
	return out
}

// WriteVCD emits an assignment (or, with a == nil, the raw window) as a
// VCD stream, one scalar signal per gate output.
func (w *Window) WriteVCD(out io.Writer, a *Assignment, timescale string) error {
	vals := w.Vals
	module := "window"
	if a != nil {
		vals = a.Vals
		module = fmt.Sprintf("parity%d", a.Parity)
	}
	vw := vcd.NewWriter(out, module, timescale, w.Names)
	for c := range vals {
		vw.Tick(uint64(c), vals[c])
	}
	return vw.Close()
}
