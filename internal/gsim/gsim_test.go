package gsim

import (
	"testing"

	"repro/internal/cell"
	"repro/internal/logic"
	"repro/internal/netlist"
)

// counterDesign builds a 4-bit counter with reset and an XOR-decoded
// output, plus an extra AND gate fed by a data input.
func counterDesign(t *testing.T) *netlist.Netlist {
	t.Helper()
	n := netlist.New("cnt")
	rst := n.NewNet("rst")
	n.MarkInput(rst)
	n.DefinePort("rst", []netlist.NetID{rst})
	din := n.NewNet("din")
	n.MarkInput(din)
	n.DefinePort("din", []netlist.NetID{din})

	q := n.NewNets("q", 4)
	// increment: ripple through half-adders (XOR + AND carry chain)
	carry := netlist.NetID(-1)
	d := make([]netlist.NetID, 4)
	for i := 0; i < 4; i++ {
		if i == 0 {
			// d0 = !q0
			d[0] = n.NewNet("")
			n.AddCell(cell.Inv, "core", "", d[0], q[0])
			carry = q[0]
		} else {
			d[i] = n.NewNet("")
			n.AddCell(cell.Xor2, "core", "", d[i], q[i], carry)
			nc := n.NewNet("")
			n.AddCell(cell.And2, "core", "", nc, q[i], carry)
			carry = nc
		}
	}
	for i := 0; i < 4; i++ {
		n.AddCell(cell.Dffr, "core", "", q[i], d[i], rst)
	}
	n.DefinePort("q", q)
	// decode: parity of q with din mixed in
	p1 := n.NewNet("")
	n.AddCell(cell.Xor2, "dec", "", p1, q[0], q[1])
	p2 := n.NewNet("")
	n.AddCell(cell.Xor2, "dec", "", p2, q[2], q[3])
	p3 := n.NewNet("")
	n.AddCell(cell.Xor2, "dec", "", p3, p1, p2)
	out := n.NewNet("out")
	n.AddCell(cell.And2, "dec", "", out, p3, din)
	n.DefinePort("out", []netlist.NetID{out})
	if err := n.Build(); err != nil {
		t.Fatal(err)
	}
	return n
}

func resetAndRun(s *Simulator) {
	s.SetPortUint("rst", 1)
	s.SetPortUint("din", 0)
	s.Step()
	s.Step()
	s.SetPortUint("rst", 0)
	s.Step()
}

func TestCounterCounts(t *testing.T) {
	n := counterDesign(t)
	s := New(n, cell.ULP65(), nil)
	resetAndRun(s)
	if v, ok := s.PortUint("q"); !ok || v != 0 {
		t.Fatalf("after reset q=%d ok=%v", v, ok)
	}
	for i := 1; i <= 20; i++ {
		s.Step()
		v, ok := s.PortUint("q")
		if !ok || v != uint64(i%16) {
			t.Fatalf("cycle %d: q=%d ok=%v want %d", i, v, ok, i%16)
		}
	}
	if s.Cycle() != 23 {
		t.Fatalf("cycle count %d", s.Cycle())
	}
}

func TestInitialStateIsAllX(t *testing.T) {
	n := counterDesign(t)
	s := New(n, cell.ULP65(), nil)
	if v := s.Port("q"); !v.HasX() {
		t.Fatal("uninitialized state should be X")
	}
	// Without reset, stepping keeps the counter X.
	s.SetPortUint("rst", 0)
	s.SetPortUint("din", 0)
	s.Step()
	s.Step()
	if v := s.Port("q"); !v.HasX() {
		t.Fatal("unreset counter should stay X")
	}
}

func TestXInputPropagatesAndMarksActive(t *testing.T) {
	n := counterDesign(t)
	s := New(n, cell.ULP65(), nil)
	resetAndRun(s)
	// Drive din with X: out = parity AND X.
	s.SetPort("din", logic.Word{logic.X})
	s.Step()
	out := n.Port("out")[0]
	par, _ := s.PortUint("q")
	_ = par
	if v := s.Val(out); v != logic.X && v != logic.L {
		t.Fatalf("out should be X or 0 (parity may be 0), got %v", v)
	}
	// Step until parity is 1 so the AND is X, and check activity marking.
	sawXActive := false
	for i := 0; i < 8; i++ {
		s.Step()
		if s.Val(out) == logic.X && s.Active(out) {
			sawXActive = true
		}
	}
	if !sawXActive {
		t.Fatal("X output fed by toggling parity should be marked active")
	}
}

func TestActivityOnToggle(t *testing.T) {
	n := counterDesign(t)
	s := New(n, cell.ULP65(), nil)
	resetAndRun(s)
	q0 := n.Port("q")[0]
	s.Step()
	if !s.Active(q0) {
		t.Fatal("q0 toggles every cycle and must be active")
	}
	q3 := n.Port("q")[3]
	// q3 changes only every 8 cycles; find an inactive cycle.
	inactive := false
	for i := 0; i < 4; i++ {
		s.Step()
		if !s.Active(q3) {
			inactive = true
		}
	}
	if !inactive {
		t.Fatal("q3 should be idle in most cycles")
	}
}

func TestSnapshotRestoreDeterminism(t *testing.T) {
	n := counterDesign(t)
	s := New(n, cell.ULP65(), nil)
	resetAndRun(s)
	s.Run(3)
	snap := s.Snapshot()
	v1, _ := s.PortUint("q")

	s.Run(5)
	v2, _ := s.PortUint("q")
	if v2 == v1 {
		t.Fatal("counter should have advanced")
	}
	s.Restore(snap)
	if v, _ := s.PortUint("q"); v != v1 {
		t.Fatalf("restore failed: q=%d want %d", v, v1)
	}
	if s.Cycle() != snap.Cycle {
		t.Fatal("cycle not restored")
	}
	// Re-running yields identical trajectory.
	s.Run(5)
	if v, _ := s.PortUint("q"); v != v2 {
		t.Fatalf("replay diverged: q=%d want %d", v, v2)
	}
}

func TestHooks(t *testing.T) {
	n := counterDesign(t)
	s := New(n, cell.ULP65(), nil)
	var cycles []uint64
	s.AddHook(func(c uint64, _ *Simulator) { cycles = append(cycles, c) })
	resetAndRun(s)
	if len(cycles) != 3 || cycles[0] != 1 || cycles[2] != 3 {
		t.Fatalf("hook cycles %v", cycles)
	}
}

func TestDynamicEnergyAndLeakage(t *testing.T) {
	n := counterDesign(t)
	s := New(n, cell.ULP65(), nil)
	resetAndRun(s)
	s.Step()
	e := s.DynamicEnergyFJ()
	if e <= 0 {
		t.Fatal("a counting cycle must dissipate energy")
	}
	// Clock-pin floor: even a held design dissipates DFF clock energy.
	s.SetPortUint("rst", 1)
	s.Step()
	s.Step()
	s.Step() // held at zero now; only clock pins dissipate
	floor := s.DynamicEnergyFJ()
	lib := cell.ULP65()
	wantFloor := 4 * lib.Params(cell.Dffr).EnergyClk
	if floor < wantFloor {
		t.Fatalf("floor %v below clock-pin energy %v", floor, wantFloor)
	}
}

func TestSetNetPanicsOnDrivenNet(t *testing.T) {
	n := counterDesign(t)
	s := New(n, cell.ULP65(), nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.SetNet(n.Port("q")[0], logic.H)
}

type recordingBus struct {
	addrs []uint64
	feed  logic.Trit
	port  []netlist.NetID
	din   netlist.NetID
}

func (b *recordingBus) Tick(s *Simulator) {
	if v, ok := s.Port("q").Uint(); ok {
		b.addrs = append(b.addrs, v)
	}
	s.SetNet(b.din, b.feed)
}

func TestBusSeesRegisteredOutputsAndDrivesInputs(t *testing.T) {
	n := counterDesign(t)
	bus := &recordingBus{feed: logic.H, din: n.Port("din")[0]}
	s := New(n, cell.ULP65(), bus)
	s.SetPortUint("rst", 1)
	s.SetPortUint("din", 0)
	s.Step()
	s.Step()
	s.SetPortUint("rst", 0)
	s.Step()
	s.Run(3)
	// Bus observed the counter's registered value each cycle and fed din
	// high; din is an input so SetNet from the bus must be immediate.
	if len(bus.addrs) < 3 {
		t.Fatalf("bus observations: %v", bus.addrs)
	}
	last := bus.addrs[len(bus.addrs)-1]
	prev := bus.addrs[len(bus.addrs)-2]
	if last != prev+1 && !(prev == 15 && last == 0) {
		t.Fatalf("bus should see consecutive counts: %v", bus.addrs)
	}
	if s.Val(n.Port("din")[0]) != logic.H {
		t.Fatal("bus-driven input lost")
	}
}

func TestActiveCells(t *testing.T) {
	n := counterDesign(t)
	s := New(n, cell.ULP65(), nil)
	resetAndRun(s)
	s.Step()
	ids := s.ActiveCells(nil)
	if len(ids) == 0 {
		t.Fatal("counting cycle must have active cells")
	}
	for _, ci := range ids {
		if !s.Active(n.Cell(ci).Out) {
			t.Fatal("ActiveCells returned inactive cell")
		}
	}
}

// Refinement property: for any input sequence, every net value in a
// concrete run refines the value in a run where din is X.
func TestConcreteRefinesSymbolic(t *testing.T) {
	n := counterDesign(t)
	conc := New(n, cell.ULP65(), nil)
	sym := New(n, cell.ULP65(), nil)
	for _, s := range []*Simulator{conc, sym} {
		s.SetPortUint("rst", 1)
		s.Step()
		s.Step()
		s.SetPortUint("rst", 0)
	}
	seq := []uint64{0, 1, 1, 0, 1, 0, 0, 1, 1, 1}
	for i, din := range seq {
		conc.SetPortUint("din", din)
		sym.SetPort("din", logic.Word{logic.X})
		conc.Step()
		sym.Step()
		for id := 0; id < n.NumNets(); id++ {
			sv := sym.Val(netlist.NetID(id))
			cv := conc.Val(netlist.NetID(id))
			if sv != logic.X && sv != cv {
				t.Fatalf("cycle %d: net %s symbolic %v but concrete %v",
					i, n.NetName(netlist.NetID(id)), sv, cv)
			}
		}
	}
}

// Containment property (the Figure 3.4 check in miniature): gates active
// in the concrete run are a subset of gates active in the symbolic run.
func TestActivityContainment(t *testing.T) {
	n := counterDesign(t)
	conc := New(n, cell.ULP65(), nil)
	sym := New(n, cell.ULP65(), nil)
	for _, s := range []*Simulator{conc, sym} {
		s.SetPortUint("rst", 1)
		s.Step()
		s.Step()
		s.SetPortUint("rst", 0)
	}
	seq := []uint64{1, 0, 1, 1, 0, 0, 1, 0}
	for i, din := range seq {
		conc.SetPortUint("din", din)
		sym.SetPort("din", logic.Word{logic.X})
		conc.Step()
		sym.Step()
		for ci := 0; ci < n.NumCells(); ci++ {
			out := n.Cell(netlist.CellID(ci)).Out
			if conc.Active(out) && !sym.Active(out) {
				t.Fatalf("cycle %d: cell %d active concretely but not symbolically", i, ci)
			}
		}
	}
}

// registerDesign latches an 8-bit input port through inverters into a
// bank of flip-flops: distinct input words give distinct planes every
// cycle, and a held word settles to a fixed point two cycles later.
func registerDesign(t *testing.T) *netlist.Netlist {
	t.Helper()
	n := netlist.New("reg")
	in := n.NewNets("in", 8)
	q := n.NewNets("q", 8)
	for i := range in {
		n.MarkInput(in[i])
		d := n.NewNet("")
		n.AddCell(cell.Inv, "core", "", d, in[i])
		n.AddCell(cell.Dff, "core", "", q[i], d)
	}
	n.DefinePort("in", in)
	n.DefinePort("q", q)
	if err := n.Build(); err != nil {
		t.Fatal(err)
	}
	return n
}

// TestStepMemoAdmission checks the step memo's admission rule: a table
// records nothing before its first revisit, the first revisit records
// and the next replays, and probation decides as it would if every miss
// were recorded.
func TestStepMemoAdmission(t *testing.T) {
	t.Run("never repeating", func(t *testing.T) {
		s := NewEngine(registerDesign(t), cell.ULP65(), nil, EnginePacked)
		s.EnableMemo(0)
		st := s.pk.stepMemo
		for c := 0; c < 200; c++ {
			s.SetPortUint("in", uint64(c))
			s.Step()
			// Every lookup misses, so probation's early cut-off
			// disables the table at lookup stepProbationEarly.
			if want := c+1 >= stepProbationEarly; st.disabled != want {
				t.Fatalf("lookup %d: disabled = %v, want %v", c+1, st.disabled, want)
			}
		}
		if st.bytes != 0 || st.src != nil || st.entries != nil || st.seen != nil {
			t.Fatalf("never-revisited table kept state: %d bytes recorded, src %d words, %d entries, %d seen",
				st.bytes, len(st.src), len(st.entries), len(st.seen))
		}
		if hits, misses := s.MemoStats(); hits != 0 || misses != stepProbationEarly {
			t.Fatalf("memo stats %d hits / %d misses, want 0 / %d", hits, misses, stepProbationEarly)
		}
	})

	t.Run("held-input loop", func(t *testing.T) {
		n := counterDesign(t)
		scalar := NewEngine(n, cell.ULP65(), nil, EngineScalar)
		packed := NewEngine(n, cell.ULP65(), nil, EnginePacked)
		memo := NewEngine(n, cell.ULP65(), nil, EnginePacked)
		memo.EnableMemo(0)
		st := memo.pk.stepMemo
		sims := []*Simulator{scalar, packed, memo}
		for _, s := range sims {
			resetAndRun(s)
			s.SetPortUint("din", 1)
		}
		// The counter orbits with period 16 under held inputs.
		firstRevisit, firstReplay := -1, -1
		for c := 0; c < 64 && firstReplay < 0; c++ {
			for _, s := range sims {
				s.Step()
			}
			compareEngines(t, n, scalar, memo, c)
			if pe, me := packed.BoundEnergyFJ(), memo.BoundEnergyFJ(); pe != me {
				t.Fatalf("cycle %d: memo bound %v, live packed bound %v", c, me, pe)
			}
			hits, _ := memo.MemoStats()
			switch {
			case firstRevisit < 0 && st.entries != nil:
				firstRevisit = c
				if hits != 0 || st.hits != 1 || len(st.entries) != 1 {
					t.Fatalf("first revisit at cycle %d: %d replays, %d probation hits, %d entries; want 0, 1, 1",
						c, hits, st.hits, len(st.entries))
				}
			case firstRevisit < 0 && st.bytes != 0:
				t.Fatalf("cycle %d: %d bytes recorded before the first revisit", c, st.bytes)
			case hits > 0:
				firstReplay = c
			}
		}
		if firstRevisit < 0 || firstReplay != firstRevisit+16 {
			t.Fatalf("first revisit at cycle %d, first replay at %d; want a replay one period after the revisit",
				firstRevisit, firstReplay)
		}
	})

	t.Run("revisit in early window", func(t *testing.T) {
		s := NewEngine(registerDesign(t), cell.ULP65(), nil, EnginePacked)
		s.EnableMemo(0)
		st := s.pk.stepMemo
		revisit := -1
		for c := 0; c < 2*stepProbationLookups; c++ {
			s.SetPortUint("in", uint64(min(c, 100)))
			s.Step()
			if revisit < 0 && st.entries != nil {
				revisit = c + 1
			}
		}
		if revisit < 0 || revisit >= stepProbationEarly {
			t.Fatalf("first revisit at lookup %d, want one inside the early window", revisit)
		}
		if hits, _ := s.MemoStats(); st.disabled || hits == 0 {
			t.Fatalf("table with a revisit at lookup %d: disabled = %v, %d replays",
				revisit, st.disabled, hits)
		}
	})
}
