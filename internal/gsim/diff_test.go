package gsim

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cell"
	"repro/internal/logic"
	"repro/internal/netlist"
)

// randomNetlist generates a well-formed random design: a layer of
// primary inputs and tie cells, a bank of mixed-kind flip-flops, and a
// sea of combinational cells each reading already-created nets (so the
// graph is acyclic by construction). Flip-flop inputs are wired last
// and may close sequential loops through arbitrary logic.
func randomNetlist(t *testing.T, r *rand.Rand) *netlist.Netlist {
	t.Helper()
	n := netlist.New("fuzz")

	numIn := 1 + r.Intn(12)
	ins := make([]netlist.NetID, numIn)
	for i := range ins {
		ins[i] = n.NewNet("")
		n.MarkInput(ins[i])
	}
	nets := append([]netlist.NetID(nil), ins...)

	if r.Intn(2) == 0 {
		t0 := n.NewNet("")
		n.AddCell(cell.Tie0, "m0", "", t0)
		nets = append(nets, t0)
	}
	if r.Intn(2) == 0 {
		t1 := n.NewNet("")
		n.AddCell(cell.Tie1, "m0", "", t1)
		nets = append(nets, t1)
	}

	// Flip-flop outputs come first so combinational logic can read them.
	seqKinds := []cell.Kind{cell.Dff, cell.Dffr, cell.Dffre}
	numSeq := r.Intn(10)
	seqOuts := make([]netlist.NetID, numSeq)
	seqKind := make([]cell.Kind, numSeq)
	for i := 0; i < numSeq; i++ {
		seqOuts[i] = n.NewNet("")
		seqKind[i] = seqKinds[r.Intn(len(seqKinds))]
		nets = append(nets, seqOuts[i])
	}

	combKinds := []cell.Kind{
		cell.Inv, cell.Buf, cell.Nand2, cell.Nor2, cell.And2,
		cell.Or2, cell.Xor2, cell.Xnor2, cell.Mux2,
	}
	numComb := 5 + r.Intn(120)
	for i := 0; i < numComb; i++ {
		k := combKinds[r.Intn(len(combKinds))]
		pins := make([]netlist.NetID, k.NumInputs())
		for p := range pins {
			pins[p] = nets[r.Intn(len(nets))]
		}
		out := n.NewNet("")
		n.AddCell(k, "m"+string(rune('0'+i%4)), "", out, pins...)
		nets = append(nets, out)
	}

	for i := 0; i < numSeq; i++ {
		pins := make([]netlist.NetID, seqKind[i].NumInputs())
		for p := range pins {
			pins[p] = nets[r.Intn(len(nets))]
		}
		n.AddCell(seqKind[i], "seq", "", seqOuts[i], pins...)
	}

	n.DefinePort("in", ins)
	if err := n.Build(); err != nil {
		t.Fatalf("random netlist build: %v", err)
	}
	return n
}

func randomTrit(r *rand.Rand) logic.Trit {
	switch r.Intn(4) {
	case 0:
		return logic.X // X weighted up: the symbolic regime is the hard one
	case 1:
		return logic.H
	default:
		return logic.L
	}
}

// closeFJ compares energy bounds across engines: they sum identical
// per-gate energies in different orders (per-cell vs popcount-grouped),
// so bounds agree to float association, not bit-exactly.
func closeFJ(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// compareEngines asserts the two simulators agree symbol for symbol on
// every net's value, previous value, and activity flag, plus the
// derived state hash, concrete dynamic energy and Algorithm 2 bound.
func compareEngines(t *testing.T, n *netlist.Netlist, scalar, packed *Simulator, cycle int) {
	t.Helper()
	for id := 0; id < n.NumNets(); id++ {
		nid := netlist.NetID(id)
		if sv, pv := scalar.Val(nid), packed.Val(nid); sv != pv {
			t.Fatalf("cycle %d net %s: scalar val %v, packed val %v", cycle, n.NetName(nid), sv, pv)
		}
		if sv, pv := scalar.PrevVal(nid), packed.PrevVal(nid); sv != pv {
			t.Fatalf("cycle %d net %s: scalar prev %v, packed prev %v", cycle, n.NetName(nid), sv, pv)
		}
		if sa, pa := scalar.Active(nid), packed.Active(nid); sa != pa {
			t.Fatalf("cycle %d net %s (val %v, prev %v): scalar active %v, packed active %v",
				cycle, n.NetName(nid), scalar.Val(nid), scalar.PrevVal(nid), sa, pa)
		}
	}
	if sh, ph := scalar.StateHash(), packed.StateHash(); sh != ph {
		t.Fatalf("cycle %d: state hash mismatch %x vs %x", cycle, sh, ph)
	}
	if se, pe := scalar.DynamicEnergyFJ(), packed.DynamicEnergyFJ(); se != pe {
		t.Fatalf("cycle %d: dynamic energy %v vs %v", cycle, se, pe)
	}
	if se, pe := scalar.BoundEnergyFJ(), packed.BoundEnergyFJ(); !closeFJ(se, pe) {
		t.Fatalf("cycle %d: energy bound %v vs %v", cycle, se, pe)
	}
}

// TestEnginesAgreeOnRandomNetlists is the packed engine's differential
// property test: many random designs, many cycles of random three-valued
// stimulus, bit-identical values and activity flags required throughout,
// including across snapshot/restore rewinds. A third simulator runs the
// packed engine with the whole-step memo on; a stretch of held-constant
// input makes states repeat, so its replays are checked cycle by cycle.
func TestEnginesAgreeOnRandomNetlists(t *testing.T) {
	designs := 60
	cycles := 80
	if testing.Short() {
		designs, cycles = 15, 40
	}
	var memoHits int64
	for d := 0; d < designs; d++ {
		r := rand.New(rand.NewSource(int64(1_000_003 * (d + 1))))
		n := randomNetlist(t, r)
		scalar := NewEngine(n, cell.ULP65(), nil, EngineScalar)
		packed := NewEngine(n, cell.ULP65(), nil, EnginePacked)
		memo := NewEngine(n, cell.ULP65(), nil, EnginePacked)
		memo.EnableMemo(0)
		ins := n.Port("in")

		var snapS, snapP, snapM *Snapshot
		snapCycle := -1
		w := make(logic.Word, len(ins))
		for c := 0; c < cycles; c++ {
			if hold := c >= cycles/4 && c < cycles/2; !hold {
				for i := range w {
					w[i] = randomTrit(r)
				}
			}
			for _, s := range []*Simulator{scalar, packed, memo} {
				s.SetPort("in", w)
				s.Step()
			}
			compareEngines(t, n, scalar, packed, c)
			compareEngines(t, n, scalar, memo, c)

			switch {
			case snapS == nil && r.Intn(10) == 0:
				snapS, snapP, snapM = scalar.Snapshot(), packed.Snapshot(), memo.Snapshot()
				snapCycle = c
			case snapS != nil && r.Intn(12) == 0:
				scalar.Restore(snapS)
				packed.Restore(snapP)
				memo.Restore(snapM)
				compareEngines(t, n, scalar, packed, snapCycle)
				compareEngines(t, n, scalar, memo, snapCycle)
				snapS, snapP, snapM = nil, nil, nil
			}
		}
		hits, _ := memo.MemoStats()
		memoHits += hits
	}
	if memoHits == 0 {
		t.Fatal("step memo never replayed a cycle: the held-input stretch no longer repeats states")
	}
	t.Logf("step-memo replays: %d", memoHits)
}

// TestEnginesAgreeFromColdStart checks the initial all-X condition and
// the first settle, where tie-cell constants must propagate although no
// input was ever driven, and the same again after a restore to the
// snapshot taken before the first Step.
func TestEnginesAgreeFromColdStart(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for d := 0; d < 10; d++ {
		n := randomNetlist(t, r)
		scalar := NewEngine(n, cell.ULP65(), nil, EngineScalar)
		packed := NewEngine(n, cell.ULP65(), nil, EnginePacked)
		// Before any Step both report the all-X initial condition.
		for id := 0; id < n.NumNets(); id++ {
			nid := netlist.NetID(id)
			if scalar.Val(nid) != logic.X || packed.Val(nid) != logic.X {
				t.Fatalf("net %s not X before first step", n.NetName(nid))
			}
		}
		coldS, coldP := scalar.Snapshot(), packed.Snapshot()
		// No inputs driven at all: constants must still propagate.
		scalar.Step()
		packed.Step()
		compareEngines(t, n, scalar, packed, 0)

		// Drive the design away from its cold state, rewind to before
		// the first Step, and settle from all-X again.
		w := make(logic.Word, len(n.Port("in")))
		for c := 1; c <= 5; c++ {
			for i := range w {
				w[i] = randomTrit(r)
			}
			scalar.SetPort("in", w)
			packed.SetPort("in", w)
			scalar.Step()
			packed.Step()
			compareEngines(t, n, scalar, packed, c)
		}
		scalar.Restore(coldS)
		packed.Restore(coldP)
		for id := 0; id < n.NumNets(); id++ {
			nid := netlist.NetID(id)
			if scalar.Val(nid) != logic.X || packed.Val(nid) != logic.X {
				t.Fatalf("net %s not X after restoring the cold snapshot", n.NetName(nid))
			}
		}
		for c := 0; c < 3; c++ {
			scalar.Step()
			packed.Step()
			compareEngines(t, n, scalar, packed, c)
		}
	}
}

// TestEnginesAgreeOnQuiescentInput holds the inputs constant: a design
// with no sequential feedback reaches a fixed point, and the packed
// engine must keep producing values identical to the scalar engine's.
func TestEnginesAgreeOnQuiescentInput(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	n := randomNetlist(t, r)
	scalar := NewEngine(n, cell.ULP65(), nil, EngineScalar)
	packed := NewEngine(n, cell.ULP65(), nil, EnginePacked)
	w := make(logic.Word, len(n.Port("in")))
	for i := range w {
		w[i] = randomTrit(r)
	}
	for c := 0; c < 30; c++ {
		scalar.SetPort("in", w)
		packed.SetPort("in", w)
		scalar.Step()
		packed.Step()
		compareEngines(t, n, scalar, packed, c)
	}
}

// TestBoundEnergyAfterRestore exercises the packed engine's on-demand
// energy-bound walk: Restore clears activity flags and invalidates the
// cached bound, so the next BoundEnergyFJ (before any Step) must take
// the standalone path and still agree with the scalar engine.
func TestBoundEnergyAfterRestore(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	n := randomNetlist(t, r)
	scalar := NewEngine(n, cell.ULP65(), nil, EngineScalar)
	packed := NewEngine(n, cell.ULP65(), nil, EnginePacked)
	w := make(logic.Word, len(n.Port("in")))
	step := func() {
		for i := range w {
			w[i] = randomTrit(r)
		}
		scalar.SetPort("in", w)
		packed.SetPort("in", w)
		scalar.Step()
		packed.Step()
	}
	for c := 0; c < 5; c++ {
		step()
	}
	snapS, snapP := scalar.Snapshot(), packed.Snapshot()
	for c := 0; c < 5; c++ {
		step()
	}
	scalar.Restore(snapS)
	packed.Restore(snapP)
	if se, pe := scalar.BoundEnergyFJ(), packed.BoundEnergyFJ(); !closeFJ(se, pe) {
		t.Fatalf("post-restore bound: scalar %v, packed %v", se, pe)
	}
	// And the cached path re-engages after the next Step.
	step()
	compareEngines(t, n, scalar, packed, 0)
	if se, pe := scalar.BoundEnergyFJ(), packed.BoundEnergyFJ(); !closeFJ(se, pe) {
		t.Fatalf("post-step bound: scalar %v, packed %v", se, pe)
	}
}
