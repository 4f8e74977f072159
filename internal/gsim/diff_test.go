package gsim

import (
	"math"
	"math/bits"
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

// wideNetlist generates a bus-shaped random design, the shape
// randomNetlist's small sea of cells almost never yields: buses wider
// than 64 bits, so same-kind level batches span several 64-lane chunks;
// stages reading the previous stage's bus at a random rotation, so
// gathers copy long consecutive runs that cross plane words; and shared
// control nets (mux selects, flip-flop reset and enable) broadcast into
// whole banks. A few lanes per stage read a random same-level source
// instead, so the runs are also broken up.
func wideNetlist(t *testing.T, r *rand.Rand) *netlist.Netlist {
	t.Helper()
	n := netlist.New("wide")
	width := 65 + r.Intn(130)

	ins := n.NewNets("", width+2)
	for _, id := range ins {
		n.MarkInput(id)
	}
	ctl := ins[width:]
	seqKinds := []cell.Kind{cell.Dff, cell.Dffr, cell.Dffre}
	seqKind := seqKinds[r.Intn(len(seqKinds))]
	q := n.NewNets("", width)

	combKinds := []cell.Kind{
		cell.Inv, cell.Buf, cell.Nand2, cell.Nor2, cell.And2,
		cell.Or2, cell.Xor2, cell.Xnor2, cell.Mux2,
	}
	// bus picks pin sources from a same-level bus: consecutive from a
	// random rotation, or one shared net, with a few lanes redrawn.
	bus := func(src []netlist.NetID, shared bool) []netlist.NetID {
		out := make([]netlist.NetID, width)
		rot, one := r.Intn(len(src)), src[r.Intn(len(src))]
		for i := range out {
			switch {
			case r.Intn(16) == 0:
				out[i] = src[r.Intn(len(src))]
			case shared:
				out[i] = one
			default:
				out[i] = src[(i+rot)%len(src)]
			}
		}
		return out
	}
	// The first stage reads level-0 sources (inputs and flip-flops),
	// every later one the stage before it, so each stage is one level.
	prev := append(append([]netlist.NetID(nil), ins[:width]...), q...)
	for stage, stages := 0, 2+r.Intn(4); stage < stages; stage++ {
		k := combKinds[r.Intn(len(combKinds))]
		var pins [3][]netlist.NetID
		for p := 0; p < k.NumInputs(); p++ {
			pins[p] = bus(prev, k == cell.Mux2 && p == 0)
		}
		next := n.NewNets("", width)
		for i, out := range next {
			var in []netlist.NetID
			for p := 0; p < k.NumInputs(); p++ {
				in = append(in, pins[p][i])
			}
			n.AddCell(k, "m"+string(rune('0'+stage%4)), "", out, in...)
		}
		prev = next
	}
	d := bus(prev, false)
	for i := range q {
		in := []netlist.NetID{d[i], ctl[0], ctl[1]}[:seqKind.NumInputs()]
		n.AddCell(seqKind, "seq", "", q[i], in...)
	}

	n.DefinePort("in", ins)
	if err := n.Build(); err != nil {
		t.Fatalf("wide netlist build: %v", err)
	}
	return n
}

// planShapes reports which gather shapes a design's packed plan holds:
// a batch of more than one 64-lane chunk, a consecutive source run that
// crosses a plane word within one chunk, and a broadcast into more than
// one lane.
func planShapes(n *netlist.Netlist) (multiChunk, straddle, bcast bool) {
	p := n.Packed()
	groups := []netlist.GatherProgram{p.SeqGather}
	batches := append([]netlist.PackedBatch(nil), p.Seq...)
	for _, lv := range p.Levels {
		groups = append(groups, lv.Gather)
		batches = append(batches, lv.Batches...)
	}
	for _, b := range batches {
		multiChunk = multiChunk || b.Chunks() > 1
		for _, in := range b.In[:b.NIn] {
			for i := 1; i < len(in); i++ {
				if i%64 != 0 && in[i] == in[i-1]+1 && in[i]%64 == 0 {
					straddle = true
				}
			}
		}
	}
	for _, g := range groups {
		for _, o := range g.Bcast {
			bcast = bcast || bits.OnesCount64(o.Mask) > 1
		}
	}
	return multiChunk, straddle, bcast
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

// compareEngines asserts the two simulators hold word-identical planes
// (current and previous value/known, activity), which also catches
// non-canonical bits and stray bits at positions no net owns, plus the
// derived state hash, concrete dynamic energy and Algorithm 2 bound.
func compareEngines(t *testing.T, n *netlist.Netlist, scalar, packed *Simulator, cycle int) {
	t.Helper()
	for _, pl := range []struct {
		name string
		s, p []uint64
	}{
		{"curV", scalar.curV, packed.curV},
		{"curK", scalar.curK, packed.curK},
		{"prevV", scalar.prevV, packed.prevV},
		{"prevK", scalar.prevK, packed.prevK},
		{"act", scalar.act, packed.act},
	} {
		if w := firstWordDiff(pl.s, pl.p); w >= 0 {
			firstNetDiff(t, n, scalar, packed, cycle)
			t.Fatalf("cycle %d: %s planes differ at word %d (%#x vs %#x) outside every net's value and flag",
				cycle, pl.name, w, pl.s[w], pl.p[w])
		}
	}
	sl, sh := scalar.StateHash()
	if pl, ph := packed.StateHash(); sl != pl || sh != ph {
		t.Fatalf("cycle %d: state hash mismatch %x:%x vs %x:%x", cycle, sl, sh, pl, ph)
	}
	if se, pe := scalar.DynamicEnergyFJ(), packed.DynamicEnergyFJ(); se != pe {
		t.Fatalf("cycle %d: dynamic energy %v vs %v", cycle, se, pe)
	}
	if se, pe := scalar.BoundEnergyFJ(), packed.BoundEnergyFJ(); !closeFJ(se, pe) {
		t.Fatalf("cycle %d: energy bound %v vs %v", cycle, se, pe)
	}
}

// firstWordDiff returns the index of the first word at which a and b
// differ (or of the shorter one's end), or -1 if they are equal.
func firstWordDiff(a, b []uint64) int {
	for w := range min(len(a), len(b)) {
		if a[w] != b[w] {
			return w
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

// firstNetDiff names the first net whose value, previous value or
// activity flag differs between the simulators, failing the test.
func firstNetDiff(t *testing.T, n *netlist.Netlist, scalar, packed *Simulator, cycle int) {
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
}

// TestEnginesAgreeOnRandomNetlists is the packed engine's differential
// property test: many random designs, many cycles of random three-valued
// stimulus, bit-identical values and activity flags required throughout,
// including across snapshot/restore rewinds. A third simulator runs the
// packed engine with the whole-step memo on; a stretch of held-constant
// input makes states repeat, so its replays are checked cycle by cycle.
// Every fourth design is bus-shaped (wideNetlist), and the test fails
// unless the designs together exercised multi-chunk batches,
// word-crossing gather runs and broadcast fan-in.
func TestEnginesAgreeOnRandomNetlists(t *testing.T) {
	designs := 60
	cycles := 80
	if testing.Short() {
		designs, cycles = 15, 40
	}
	var memoHits int64
	var multiChunk, straddle, bcast bool
	for d := 0; d < designs; d++ {
		r := rand.New(rand.NewSource(int64(1_000_003 * (d + 1))))
		gen := randomNetlist
		if d%4 == 3 {
			gen = wideNetlist
		}
		n := gen(t, r)
		mc, st, bc := planShapes(n)
		multiChunk, straddle, bcast = multiChunk || mc, straddle || st, bcast || bc
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
	if !multiChunk || !straddle || !bcast {
		t.Fatalf("gather shapes exercised: multi-chunk batch %v, word-crossing run %v, broadcast %v; want all",
			multiChunk, straddle, bcast)
	}
}

// TestEnginesAgreeAcrossSnapshots restores each engine's snapshots into
// the other. Both keep net state in one layout, so a snapshot taken on
// the scalar engine resumes on the packed engine, and the reverse, and
// each must then run exactly as the other engine resuming from its own
// snapshot. The snapshots are taken with an input assignment staged,
// so they carry staged inputs too.
func TestEnginesAgreeAcrossSnapshots(t *testing.T) {
	for d := 0; d < 12; d++ {
		r := rand.New(rand.NewSource(int64(7_919 * (d + 1))))
		gen := randomNetlist
		if d%4 == 3 {
			gen = wideNetlist
		}
		n := gen(t, r)
		lib := cell.ULP65()
		scalar := NewEngine(n, lib, nil, EngineScalar)
		packed := NewEngine(n, lib, nil, EnginePacked)
		w := make(logic.Word, len(n.Port("in")))
		drive := func(sims ...*Simulator) {
			for i := range w {
				w[i] = randomTrit(r)
			}
			for _, s := range sims {
				s.SetPort("in", w)
			}
		}
		step := func(sims ...*Simulator) {
			for _, s := range sims {
				s.Step()
			}
		}
		for c := 0; c < 12; c++ {
			drive(scalar, packed)
			step(scalar, packed)
		}
		drive(scalar, packed)
		fromS, fromP := scalar.Snapshot(), packed.Snapshot()
		for c := 0; c < 8; c++ {
			step(scalar, packed)
			drive(scalar, packed)
		}

		// Swap the snapshots; each engine's own restore is the
		// reference for the other's.
		packed.Restore(fromS)
		scalar.Restore(fromP)
		refS := NewEngine(n, lib, nil, EngineScalar)
		refP := NewEngine(n, lib, nil, EnginePacked)
		refS.Restore(fromS)
		refP.Restore(fromP)
		compareEngines(t, n, refS, packed, 0)
		compareEngines(t, n, scalar, refP, 0)
		for c := 1; c <= 20; c++ {
			step(scalar, packed, refS, refP)
			compareEngines(t, n, refS, packed, c)
			compareEngines(t, n, scalar, refP, c)
			if packed.Cycle() != refS.Cycle() || scalar.Cycle() != refP.Cycle() {
				t.Fatalf("design %d: cycle counters %d/%d and %d/%d", d, packed.Cycle(), refS.Cycle(), scalar.Cycle(), refP.Cycle())
			}
			drive(scalar, packed, refS, refP)
		}
	}
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
