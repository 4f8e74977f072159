package power

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/cell"
	"repro/internal/gsim"
	"repro/internal/isa"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/symx"
	"repro/internal/ulp430"
)

var (
	cpuOnce sync.Once
	cpuNet  *netlist.Netlist
)

func sharedCPU(t *testing.T) *netlist.Netlist {
	t.Helper()
	cpuOnce.Do(func() {
		n, err := ulp430.BuildCPU()
		if err != nil {
			panic(err)
		}
		cpuNet = n
	})
	return cpuNet
}

func model() Model { return Model{Lib: cell.ULP65(), ClockHz: 100e6} }

const haltSeq = `
    mov #1, &0x0126
spin: jmp spin
`

// TestFigure3_2Example reproduces the paper's Figure 3.2: three gates
// with overlapping Xs assigned to maximize power in even vs odd cycles.
func TestFigure3_2Example(t *testing.T) {
	lib := cell.ULP65()
	x, l, h := logic.X, logic.L, logic.H
	// Nine cycles (paper's columns 1..9 map to Vals[1..9]; Vals[0] is a
	// preamble equal to column 1).
	g1 := []logic.Trit{l, l, l, h, x, x, x, l, l, l}
	g2 := []logic.Trit{l, l, x, x, x, x, x, x, l, l}
	g3 := []logic.Trit{l, l, l, l, h, x, x, x, x, l}
	w := &Window{
		Kinds: []cell.Kind{cell.Nand2, cell.Nand2, cell.Nand2},
		Names: []string{"g1", "g2", "g3"},
	}
	for c := 0; c < 10; c++ {
		w.Vals = append(w.Vals, []logic.Trit{g1[c], g2[c], g3[c]})
		act := make([]bool, 3)
		if c > 0 {
			for g, col := range [][]logic.Trit{g1, g2, g3} {
				act[g] = col[c] != col[c-1] || col[c] == x
			}
		}
		w.Act = append(w.Act, act)
	}
	m := model()
	peak, even, odd := AlgorithmTwo(w, m)

	// All Xs must be assigned in the parity cycles they maximize.
	for c := 1; c < 10; c++ {
		for g := 0; g < 3; g++ {
			if c%2 == 0 && w.Act[c][g] && even.Vals[c][g] == logic.X && w.Vals[c][g] == logic.X {
				t.Errorf("even assignment left X at cycle %d gate %d", c, g)
			}
		}
	}
	// NAND2's max transition is the rise (0->1): when both cycles are X,
	// the assignment must produce a rising edge in the target cycle.
	first, second, _ := lib.MaxTransition(cell.Nand2)
	if first != logic.L || second != logic.H {
		t.Fatalf("NAND2 max transition should be rise, got %v->%v", first, second)
	}
	// g2 is X at cycles 3,4 (both X): even assignment at cycle 4 must be
	// 0 -> 1.
	if even.Vals[3][1] != logic.L || even.Vals[4][1] != logic.H {
		t.Errorf("even both-X assignment: got %v->%v", even.Vals[3][1], even.Vals[4][1])
	}
	// Odd assignment maximizes odd cycles instead.
	if odd.Vals[4][1] != logic.L || odd.Vals[5][1] != logic.H {
		t.Errorf("odd both-X assignment: got %v->%v", odd.Vals[4][1], odd.Vals[5][1])
	}
	// Interleaved peak equals the streaming rule.
	stream := StreamingTrace(w, m)
	for c := 1; c < 10; c++ {
		if math.Abs(peak[c]-stream[c]) > 1e-9 {
			t.Errorf("cycle %d: interleaved %v != streaming %v", c, peak[c], stream[c])
		}
	}
}

// TestAlgorithmTwoMatchesStreamingOnCPU captures a real window with Xs
// flowing through the datapath and checks the literal even/odd
// construction against the streaming bound, cycle for cycle.
func TestAlgorithmTwoMatchesStreamingOnCPU(t *testing.T) {
	img, err := isa.Assemble("w", `
.org 0x0200
v: .input 2
.org 0xf000
.entry main
main:
    mov &v, r4        ; X
    mov &v+2, r5      ; X
    add r4, r5        ; X arithmetic
    xor r4, r5
    mov r5, &0x0204
    mov #0x0080, &0x0120
loop:
    add #1, r6
    jmp loop
`)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := ulp430.NewSystem(sharedCPU(t), cell.ULP65(), img, ulp430.SymbolicInputs, nil)
	if err != nil {
		t.Fatal(err)
	}
	sys.Reset()
	w, err := Capture(sys, 60)
	if err != nil {
		t.Fatal(err)
	}
	m := model()
	peak, _, _ := AlgorithmTwo(w, m)
	stream := StreamingTrace(w, m)
	for c := 1; c <= w.Cycles(); c++ {
		if math.Abs(peak[c]-stream[c]) > 1e-9 {
			t.Fatalf("cycle %d: literal %v != streaming %v", c, peak[c], stream[c])
		}
	}
	// The window must actually contain X activity for this test to mean
	// anything.
	sawX := false
	for c := 1; c < len(w.Vals); c++ {
		for g := range w.Kinds {
			if w.Act[c][g] && w.Vals[c][g] == logic.X {
				sawX = true
			}
		}
	}
	if !sawX {
		t.Fatal("window contained no active X gates")
	}
}

func exploreWithSink(t *testing.T, src string) (*symx.Tree, *Sink, *isa.Image) {
	t.Helper()
	img, err := isa.Assemble("p", src)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := ulp430.NewSystem(sharedCPU(t), cell.ULP65(), img, ulp430.SymbolicInputs, nil)
	if err != nil {
		t.Fatal(err)
	}
	sink := NewSink(sys, model(), img, 8)
	tree, err := symx.Explore(sys, sink, symx.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return tree, sink, img
}

const branchy = `
.org 0x0200
v: .input 2
.org 0xf000
.entry main
main:
    mov #0x0a00, sp
    mov &v, r4
    mov &v+2, r5
    cmp r4, r5
    jl less
    add r4, r5
    jmp done
less:
    sub r5, r4
done:
    mov r4, &0x0204
` + haltSeq

// TestXBoundDominatesConcrete: the symbolic per-cycle bound must be >=
// the concrete power of any input (Figures 3.5 and 5.1's containment).
func TestXBoundDominatesConcrete(t *testing.T) {
	_, sink, img := exploreWithSink(t, branchy)
	if sink.PeakMW() <= 0 {
		t.Fatal("no peak recorded")
	}
	for _, inputs := range [][]uint16{{0, 0}, {5, 9}, {9, 5}, {0xFFFF, 1}, {1, 0xFFFF}, {1234, 4321}} {
		sys, err := ulp430.NewSystem(sharedCPU(t), cell.ULP65(), img, ulp430.ConcreteInputs, inputs)
		if err != nil {
			t.Fatal(err)
		}
		csink := NewSink(sys, model(), img, 0)
		sys.Reset()
		for i := 0; i < 100000 && !sys.Halted(); i++ {
			sys.Step()
			csink.OnCycle(sys)
		}
		if !sys.Halted() {
			t.Fatal("concrete run did not halt")
		}
		if csink.PeakMW() > sink.PeakMW()+1e-9 {
			t.Errorf("inputs %v: concrete peak %.6f mW exceeds X-bound %.6f mW",
				inputs, csink.PeakMW(), sink.PeakMW())
		}
		// Toggle containment (Figure 3.4): every cell active in the
		// concrete run must be in the symbolic union.
		for ci, act := range csink.UnionActive {
			if act && !sink.UnionActive[ci] {
				t.Errorf("inputs %v: cell %d active concretely but not in X-based union", inputs, ci)
			}
		}
	}
}

// TestPerCycleTraceBound aligns the straight-line prefix of a concrete
// run with the symbolic trace (Figure 3.5's per-cycle bound).
func TestPerCycleTraceBound(t *testing.T) {
	straight := `
.org 0x0200
v: .input 1
.org 0xf000
.entry main
main:
    mov &v, r4
    add r4, r4
    xor #0x5a5a, r4
    mov r4, &0x0202
` + haltSeq
	_, sink, img := exploreWithSink(t, straight)
	symTrace := append([]float64(nil), sink.Trace...)

	sys, err := ulp430.NewSystem(sharedCPU(t), cell.ULP65(), img, ulp430.ConcreteInputs, []uint16{0xBEEF})
	if err != nil {
		t.Fatal(err)
	}
	csink := NewSink(sys, model(), img, 0)
	sys.Reset()
	for i := 0; i < 100000 && !sys.Halted(); i++ {
		sys.Step()
		csink.OnCycle(sys)
	}
	if len(csink.Trace) != len(symTrace) {
		t.Fatalf("trace lengths differ: %d vs %d (straight-line program)", len(csink.Trace), len(symTrace))
	}
	for c := range symTrace {
		if csink.Trace[c] > symTrace[c]+1e-9 {
			t.Errorf("cycle %d: concrete %.6f > bound %.6f", c, csink.Trace[c], symTrace[c])
		}
	}
}

func TestCOIAttribution(t *testing.T) {
	_, sink, _ := exploreWithSink(t, branchy)
	if len(sink.TopK) == 0 {
		t.Fatal("no COIs recorded")
	}
	for i := 1; i < len(sink.TopK); i++ {
		if sink.TopK[i].PowerMW > sink.TopK[i-1].PowerMW {
			t.Fatal("TopK not sorted")
		}
	}
	best := sink.TopK[0]
	if best.PowerMW != sink.Best.PowerMW {
		t.Errorf("TopK[0] %.6f != Best %.6f", best.PowerMW, sink.Best.PowerMW)
	}
	// Module breakdown sums to total minus leakage (within float noise).
	sum := 0.0
	for _, mw := range best.ByModuleMW {
		sum += mw
	}
	leak := model().LeakageMW(sharedCPU(t))
	if math.Abs(sum+leak-best.PowerMW) > 1e-6 {
		t.Errorf("module split %v + leak %v != total %v", sum, leak, best.PowerMW)
	}
	// Attribution renders.
	if sink.Instruction(best) == "" || best.State == "" {
		t.Error("missing attribution")
	}
	if len(sink.Modules()) == 0 {
		t.Error("no module names")
	}
	if len(sink.Best.ActiveCells) == 0 {
		t.Error("best peak has no active cells recorded")
	}
}

func TestWindowVCDEmission(t *testing.T) {
	img, err := isa.Assemble("w", `
.org 0xf000
.entry main
main:
    mov #5, r4
    add r4, r4
`+haltSeq)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := ulp430.NewSystem(sharedCPU(t), cell.ULP65(), img, ulp430.ConcreteInputs, nil)
	if err != nil {
		t.Fatal(err)
	}
	sys.Reset()
	w, err := Capture(sys, 10)
	if err != nil {
		t.Fatal(err)
	}
	var raw, evenBuf bytes.Buffer
	if err := w.WriteVCD(&raw, nil, "10ns"); err != nil {
		t.Fatal(err)
	}
	_, even, _ := AlgorithmTwo(w, model())
	if err := w.WriteVCD(&evenBuf, even, "10ns"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(raw.String(), "$enddefinitions") || raw.Len() == 0 {
		t.Fatal("raw VCD malformed")
	}
	if !strings.Contains(evenBuf.String(), "parity0") {
		t.Fatal("even VCD missing module tag")
	}
}

func TestLeakageIncluded(t *testing.T) {
	m := model()
	leak := m.LeakageMW(sharedCPU(t))
	if leak <= 0 {
		t.Fatal("leakage should be positive")
	}
	// Any cycle's power must be at least clock floor + leakage.
	_, sink, _ := exploreWithSink(t, `
.org 0xf000
.entry main
main:
`+haltSeq)
	clkFJ := 0.0
	nl := sharedCPU(t)
	for ci := 0; ci < nl.NumCells(); ci++ {
		clkFJ += m.Lib.Params(nl.Cell(netlist.CellID(ci)).Kind).EnergyClk
	}
	floor := m.PowerMW(clkFJ) + leak
	for c, p := range sink.Trace {
		if p < floor-1e-9 {
			t.Fatalf("cycle %d power %.6f below floor %.6f", c, p, floor)
		}
	}
}

// cycleBoundFJ is the all-cells reference for the cycle's maximum
// dynamic energy in femtojoules: cellBoundFJ plus the clock pin, cell
// by cell.
func cycleBoundFJ(sim *gsim.Simulator) float64 {
	nl, lib := sim.Netlist(), sim.Library()
	total := 0.0
	for ci := 0; ci < nl.NumCells(); ci++ {
		c := nl.Cell(netlist.CellID(ci))
		total += cellBoundFJ(lib, c.Kind, sim.PrevVal(c.Out), sim.Val(c.Out), sim.Active(c.Out))
		total += lib.Params(c.Kind).EnergyClk
	}
	return total
}

// TestSinkFastPathMatchesCycleBoundFJ pins the streaming sink's
// O(active-cells) accumulation to the reference all-cells sum of
// cycleBoundFJ per cycle, and its lazily built module split to the
// peak's power, on both gate engines with X values in flight.
func TestSinkFastPathMatchesCycleBoundFJ(t *testing.T) {
	img, err := isa.Assemble("fp", `
.org 0x0200
v: .input 2
.org 0xf000
.entry main
main:
    mov #0x0080, &0x0120
    mov &v, r4
    add &v+2, r4
    xor r4, r5
    mov r5, &0x0204
`+haltSeq)
	if err != nil {
		t.Fatal(err)
	}
	m := model()
	for _, engine := range []gsim.Engine{gsim.EnginePacked, gsim.EngineScalar} {
		sys, err := ulp430.NewSystemEngine(engine, sharedCPU(t), m.Lib, img, ulp430.SymbolicInputs, nil)
		if err != nil {
			t.Fatal(err)
		}
		sink := NewSink(sys, m, img, 4)
		sys.Reset()
		for c := 0; c < 40; c++ {
			sys.Step()
			sink.OnCycle(sys)
			want := m.PowerMW(cycleBoundFJ(sys.Sim)) + m.LeakageMW(sys.Sim.Netlist())
			got := sink.Trace[len(sink.Trace)-1]
			if math.Abs(got-want) > 1e-9 {
				t.Fatalf("%v cycle %d: sink %v, reference %v", engine, c, got, want)
			}
		}
		// The module split is materialized lazily on peak records; it
		// must still account for the peak's full dynamic power.
		sum := 0.0
		for _, mw := range sink.Best.ByModuleMW {
			sum += mw
		}
		if math.Abs(sum-(sink.Best.PowerMW-m.LeakageMW(sys.Sim.Netlist()))) > 1e-9 {
			t.Fatalf("%v: module split sums to %v, peak dynamic power is %v",
				engine, sum, sink.Best.PowerMW-m.LeakageMW(sys.Sim.Netlist()))
		}
	}
}

// TestMergeParallelReplayRejectsMalformedRecords: a replayed task record
// comes from the on-disk journal or a fleet worker, so an index that
// would overrun the union or a later module lookup, or a field of another
// record format, must be an error naming the task, never a panic or a
// silently dropped field.
func TestMergeParallelReplayRejectsMalformedRecords(t *testing.T) {
	img, err := isa.Assemble("p", branchy)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := ulp430.NewSystem(sharedCPU(t), cell.ULP65(), img, ulp430.SymbolicInputs, nil)
	if err != nil {
		t.Fatal(err)
	}
	sinks := []*Sink{NewSink(sys, model(), img, 4)}
	nodeID := func(task, stream int) int { return stream }
	fullMod := strings.TrimSuffix(strings.Repeat("0,", len(sinks[0].Modules())), ",")
	for _, tc := range []struct {
		name, rec, want string
	}{
		{"negative active cell", `{"active":[-1]}`, "active cell -1"},
		{"candidate cell out of range",
			`{"topk":[{"s":0,"p":1,"pos":0,"f":0,"mod":[` + fullMod + `],"cells":[2147483647]}]}`,
			"cell 2147483647"},
		{"short module split", `{"topk":[{"s":0,"p":1,"pos":0,"f":0,"mod":[1]}]}`, "1 module powers"},
		// A record of the older format kept the peak in a separate best
		// list; dropping it would seal a zero peak when k is 0.
		{"old-format best list",
			`{"best":[{"s":0,"p":1,"pos":0,"f":0,"mod":[` + fullMod + `]}]}`,
			`unknown field "best"`},
		{"data after the record", `{"active":[1]} {}`, "data after the record"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, _, _, _, err := MergeParallelReplay(sinks, 4, nodeID, map[int][]byte{7: []byte(tc.rec)})
			if err == nil || !strings.Contains(err.Error(), "task 7") || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got err %v, want an error naming task 7 and %q", err, tc.want)
			}
		})
	}
}

// TestMergeParallelReplayNamesLowestBadTask: replayed records are decoded
// in ascending task ID, so of two malformed records the error always
// names the lower ID, whatever the map's iteration order.
func TestMergeParallelReplayNamesLowestBadTask(t *testing.T) {
	img, err := isa.Assemble("p", branchy)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := ulp430.NewSystem(sharedCPU(t), cell.ULP65(), img, ulp430.SymbolicInputs, nil)
	if err != nil {
		t.Fatal(err)
	}
	sinks := []*Sink{NewSink(sys, model(), img, 4)}
	nodeID := func(task, stream int) int { return stream }
	replayed := map[int][]byte{12: []byte(`{"active":[-1]}`), 5: []byte(`{"active":[-2]}`)}
	for range 20 {
		_, _, _, _, err := MergeParallelReplay(sinks, 4, nodeID, replayed)
		if err == nil || !strings.Contains(err.Error(), "task 5:") {
			t.Fatalf("got err %v, want an error naming task 5", err)
		}
	}
}

// TestActiveUnionMemoStamp checks the union stamp: a cycle replayed
// from a step-memo entry whose activity the task's accumulator already
// holds skips the union fold. One sink follows a ULP430 spinning in a
// loop through several tasks, with the step memo on and off; every task
// after the first replays only entries an earlier task folded. Each
// task's Active list (the cells of its accumulator) and the run's
// UnionActive must be the same either way, so BeginTask must start a
// new accumulator epoch: a stamp from the previous task must not skip a
// fold into the emptied accumulator.
func TestActiveUnionMemoStamp(t *testing.T) {
	img, err := isa.Assemble("spin", `
.org 0xf000
.entry main
main:
    mov #0x0A00, r1
    mov #0x0080, &0x0120
loop:
    mov #3, r5
    add r5, r6
    mov #0, r6
    jmp loop
`)
	if err != nil {
		t.Fatal(err)
	}
	run := func(memo bool) (active [][]int32, union []bool, hits int64) {
		sys, err := ulp430.NewSystem(sharedCPU(t), cell.ULP65(), img, ulp430.ConcreteInputs, nil)
		if err != nil {
			t.Fatal(err)
		}
		if memo {
			sys.Sim.EnableMemo(0)
		}
		sink := NewSink(sys, model(), img, 4)
		sys.Reset()
		pos := 0
		for task, n := range []int{160, 40, 1, 60, 25} {
			sink.BeginTask(task, pos, nil)
			for range n {
				sys.Step()
				sink.OnCycle(sys)
				pos++
			}
			blob, err := sink.MarshalTask()
			if err != nil {
				t.Fatal(err)
			}
			var w taskWire
			if err := json.Unmarshal(blob, &w); err != nil {
				t.Fatal(err)
			}
			active = append(active, w.Active)
		}
		hits, _ = sys.Sim.MemoStats()
		return active, sink.UnionActive, hits
	}
	liveActive, liveUnion, _ := run(false)
	memoActive, memoUnion, hits := run(true)
	if hits == 0 {
		t.Fatal("the step memo never replayed a cycle of the loop")
	}
	for task := range liveActive {
		if len(liveActive[task]) == 0 {
			t.Fatalf("task %d: no active cells; the loop exercises nothing", task)
		}
		if !slices.Equal(liveActive[task], memoActive[task]) {
			t.Fatalf("task %d: %d active cells with the memo on, %d with it off",
				task, len(memoActive[task]), len(liveActive[task]))
		}
	}
	if !slices.Equal(liveUnion, memoUnion) {
		t.Fatal("UnionActive differs between memo on and off")
	}
}

// TestMarshalTaskActiveAscending checks the task record's cell list: the
// accumulator visits cells in plane order, and MarshalTask must write
// them in strictly ascending cell ID, equal to the sorted visit. A
// symbolic ULP430 run is cut into tasks of several lengths; the bitset
// must be empty again after every record, or a cell of one task would
// leak into the next.
func TestMarshalTaskActiveAscending(t *testing.T) {
	img, err := isa.Assemble("p", branchy)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := ulp430.NewSystem(sharedCPU(t), cell.ULP65(), img, ulp430.SymbolicInputs, nil)
	if err != nil {
		t.Fatal(err)
	}
	sink := NewSink(sys, model(), img, 4)
	sys.Reset()
	pos, unsorted := 0, false
	for task, n := range []int{30, 1, 12, 25} {
		sink.BeginTask(task, pos, nil)
		for range n {
			sys.Step()
			sink.OnCycle(sys)
			pos++
		}
		var want []int32
		sys.Sim.ForEachAccumulated(&sink.actAccum, func(ci netlist.CellID) { want = append(want, int32(ci)) })
		unsorted = unsorted || !slices.IsSorted(want)
		slices.Sort(want)
		blob, err := sink.MarshalTask()
		if err != nil {
			t.Fatal(err)
		}
		var w taskWire
		if err := json.Unmarshal(blob, &w); err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(w.Active); i++ {
			if w.Active[i] <= w.Active[i-1] {
				t.Fatalf("task %d: Active[%d] = %d after %d", task, i, w.Active[i], w.Active[i-1])
			}
		}
		if !slices.Equal(w.Active, want) {
			t.Fatalf("task %d: Active has %d cells, the accumulator %d", task, len(w.Active), len(want))
		}
		if i := slices.IndexFunc(sink.cellBits, func(b uint64) bool { return b != 0 }); i >= 0 {
			t.Fatalf("task %d: cell bitset word %d not cleared", task, i)
		}
	}
	if !unsorted {
		t.Fatal("every task's cells came in ascending ID order; the test shows nothing")
	}
}
