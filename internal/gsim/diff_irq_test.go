// Differential fuzzing of the two gate engines on interrupt-bearing
// systems: the bus-attached peripherals (timer, ADC) inject stimulus the
// random-netlist fuzz in diff_test.go never exercises — vectored entry
// sequences, RETI unwinds, and X-valued interrupt request lines during
// symbolic arrival windows. An external test package because ulp430 and
// symx sit above gsim in the import graph.
package gsim_test

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/cell"
	"repro/internal/gsim"
	"repro/internal/isa"
	"repro/internal/netlist"
	"repro/internal/periph"
	"repro/internal/symx"
	"repro/internal/ulp430"
)

var (
	irqCPUOnce sync.Once
	irqCPUNet  *netlist.Netlist
)

func irqCPU(t *testing.T) *netlist.Netlist {
	t.Helper()
	irqCPUOnce.Do(func() {
		n, err := ulp430.BuildCPU()
		if err != nil {
			t.Fatalf("BuildCPU: %v", err)
		}
		irqCPUNet = n
	})
	return irqCPUNet
}

// concreteIRQProg parameterizes a timer-interrupt program: arm the timer
// with a random compare value, optionally start an ADC conversion, spin
// until the handlers have run, halt.
func concreteIRQProg(taccr int, adc bool) string {
	start := ""
	want := 1
	if adc {
		start = "    mov #3, &0x0150       ; start an ADC conversion\n"
		want = 2
	}
	return fmt.Sprintf(`
.org 0xf000
.entry main
main:
    mov #0x0A00, r1
    mov #0x0080, &0x0120
    clr r10
    mov #%d, &0x0144
    mov #3, &0x0140
%s    eint
wait:
    cmp #%d, r10
    jnz wait
    dint
    mov #1, &0x0126
spin: jmp spin
timer_isr:
    inc r10
    reti
adc_isr:
    mov &0x0154, r11
    inc r10
    reti
.org 0xfff8
.word timer_isr
.word adc_isr
`, taccr, start, want)
}

// symbolicIRQProg idles on a flag only the ADC handler sets, so a
// symbolic arrival window forks the exploration at every interruptible
// boundary in the window.
const symbolicIRQProg = `
.org 0xf000
.entry main
main:
    mov #0x0A00, r1
    mov #0x0080, &0x0120
    clr r10
    mov #3, &0x0150       ; start an ADC conversion
    eint
idle:
    tst r10
    jz  idle
    dint
    mov #1, &0x0126
spin: jmp spin
timer_isr:
    reti
adc_isr:
    mov &0x0154, r11
    mov #1, r10
    reti
.org 0xfff8
.word timer_isr
.word adc_isr
`

// TestEnginesAgreeOnInterruptRuns steps scalar and packed systems in
// lockstep through random concrete interrupt schedules — random timer
// compare values, random ADC windows and delivery latencies — and
// requires identical state keys and dynamic energy every cycle,
// including across snapshot/restore rewinds through ISR entry sequences.
// A third system runs the packed engine with the step memo on: its
// replays (cached clock edges and predicted successors through the ISR
// wait loops, bus read data landing mid-cycle, rewinds) must leave the
// same planes, active cells and energy bound as the live packed engine.
func TestEnginesAgreeOnInterruptRuns(t *testing.T) {
	runs := 12
	if testing.Short() {
		runs = 4
	}
	var memoHits int64
	var snP, snM gsim.Snapshot
	var actP, actM []netlist.CellID
	for d := 0; d < runs; d++ {
		r := rand.New(rand.NewSource(int64(7_777_7 * (d + 1))))
		taccr := 5 + r.Intn(40)
		adc := r.Intn(2) == 0
		minLat := 1 + r.Intn(20)
		cfg := periph.Config{
			MinLatency:      minLat,
			MaxLatency:      minLat + r.Intn(12),
			ConcreteLatency: minLat + r.Intn(12),
		}
		img, err := isa.Assemble("irqfuzz", concreteIRQProg(taccr, adc))
		if err != nil {
			t.Fatal(err)
		}
		newSys := func(e gsim.Engine) *ulp430.System {
			sys, err := ulp430.NewSystemEngine(e, irqCPU(t), cell.ULP65(), img, ulp430.ConcreteInputs, nil)
			if err != nil {
				t.Fatal(err)
			}
			sys.EnableInterrupts(cfg)
			sys.Reset()
			return sys
		}
		scalar := newSys(gsim.EngineScalar)
		packed := newSys(gsim.EnginePacked)
		memo := newSys(gsim.EnginePacked)
		memo.Sim.EnableMemo(0)
		systems := []*ulp430.System{scalar, packed, memo}

		var snaps []*ulp430.SysSnapshot
		for c := 0; c < 3000 && !scalar.Halted(); c++ {
			for _, sys := range systems {
				sys.Step()
				if err := sys.Err(); err != nil {
					t.Fatalf("run %d cycle %d: %v engine: %v", d, c, sys.Sim.Engine(), err)
				}
			}
			if sh, ph, mh := stateKey(scalar), stateKey(packed), stateKey(memo); sh != ph || ph != mh {
				t.Fatalf("run %d cycle %d: state key diverged: %x vs %x vs memoized %x", d, c, sh, ph, mh)
			}
			if se, pe := scalar.Sim.DynamicEnergyFJ(), packed.Sim.DynamicEnergyFJ(); se != pe {
				t.Fatalf("run %d cycle %d: dynamic energy diverged: %v vs %v", d, c, se, pe)
			}
			packed.Sim.SnapshotInto(&snP)
			memo.Sim.SnapshotInto(&snM)
			for _, pl := range [][2][]uint64{
				{snP.PlaneV, snM.PlaneV}, {snP.PlaneK, snM.PlaneK},
				{snP.PrevPlaneV, snM.PrevPlaneV}, {snP.PrevPlaneK, snM.PrevPlaneK},
			} {
				if !slices.Equal(pl[0], pl[1]) {
					t.Fatalf("run %d cycle %d: memoized planes differ from the live packed engine's", d, c)
				}
			}
			actP, actM = packed.Sim.ActiveCells(actP[:0]), memo.Sim.ActiveCells(actM[:0])
			if !slices.Equal(actP, actM) {
				t.Fatalf("run %d cycle %d: memoized active cells differ from the live packed engine's", d, c)
			}
			if pb, mb := packed.Sim.BoundEnergyFJ(), memo.Sim.BoundEnergyFJ(); pb != mb {
				t.Fatalf("run %d cycle %d: memoized energy bound %v, live %v", d, c, mb, pb)
			}
			switch {
			case snaps == nil && r.Intn(40) == 0:
				snaps = []*ulp430.SysSnapshot{scalar.Snapshot(), packed.Snapshot(), memo.Snapshot()}
			case snaps != nil && r.Intn(50) == 0:
				for i, sys := range systems {
					sys.Restore(snaps[i])
				}
				if sh, ph, mh := stateKey(scalar), stateKey(packed), stateKey(memo); sh != ph || ph != mh {
					t.Fatalf("run %d: state key diverged after restore: %x vs %x vs memoized %x", d, sh, ph, mh)
				}
				snaps = nil
			}
		}
		for _, sys := range systems {
			if !sys.Halted() {
				t.Fatalf("run %d: %v engine did not halt", d, sys.Sim.Engine())
			}
		}
		hits, _ := memo.Sim.MemoStats()
		memoHits += hits
	}
	if memoHits == 0 {
		t.Fatal("the step memo never replayed a cycle of an interrupt run")
	}
	t.Logf("step-memo replays: %d", memoHits)
}

// pcSink records the PC stream — enough payload to make tree comparison
// meaningful without depending on the power model.
type pcSink struct{ pcs []uint16 }

func (c *pcSink) OnCycle(sys *ulp430.System) { pc, _ := sys.PC(); c.pcs = append(c.pcs, pc) }
func (c *pcSink) Pos() int                   { return len(c.pcs) }
func (c *pcSink) Rewind(pos int)             { c.pcs = c.pcs[:pos] }
func (c *pcSink) Segment(from int) interface{} {
	return append([]uint16(nil), c.pcs[from:]...)
}

// TestEnginesAgreeOnSymbolicIRQExploration runs full symbolic
// exploration — X-valued interrupt request lines forking over random
// arrival windows — on both engines and requires identical trees:
// same node count, wiring, kinds, IRQ fork flags, and PC payloads.
func TestEnginesAgreeOnSymbolicIRQExploration(t *testing.T) {
	if testing.Short() {
		t.Skip("scalar engine is slow; skipping in -short")
	}
	r := rand.New(rand.NewSource(424242))
	windows := 3
	for d := 0; d < windows; d++ {
		minLat := 2 + r.Intn(12)
		cfg := periph.Config{MinLatency: minLat, MaxLatency: minLat + 1 + r.Intn(10)}
		img, err := isa.Assemble("irqfuzz", symbolicIRQProg)
		if err != nil {
			t.Fatal(err)
		}
		explore := func(e gsim.Engine) *symx.Tree {
			sys, err := ulp430.NewSystemEngine(e, irqCPU(t), cell.ULP65(), img, ulp430.SymbolicInputs, nil)
			if err != nil {
				t.Fatal(err)
			}
			sys.EnableInterrupts(cfg)
			tree, err := symx.Explore(sys, &pcSink{}, symx.Options{})
			if err != nil {
				t.Fatalf("engine %v window [%d,%d]: %v", e, cfg.MinLatency, cfg.MaxLatency, err)
			}
			return tree
		}
		st := explore(gsim.EngineScalar)
		pt := explore(gsim.EnginePacked)
		if len(st.Nodes) != len(pt.Nodes) || st.Paths != pt.Paths || st.Cycles != pt.Cycles ||
			st.IRQForks() != pt.IRQForks() {
			t.Fatalf("window [%d,%d]: trees differ: nodes %d/%d paths %d/%d cycles %d/%d irqForks %d/%d",
				cfg.MinLatency, cfg.MaxLatency, len(st.Nodes), len(pt.Nodes),
				st.Paths, pt.Paths, st.Cycles, pt.Cycles, st.IRQForks(), pt.IRQForks())
		}
		for i := range st.Nodes {
			sn, pn := st.Nodes[i], pt.Nodes[i]
			if sn.Kind != pn.Kind || sn.Len != pn.Len || sn.IRQ != pn.IRQ || sn.BranchPC != pn.BranchPC {
				t.Fatalf("window [%d,%d] node %d differs: {%v len %d irq %v pc %#x} vs {%v len %d irq %v pc %#x}",
					cfg.MinLatency, cfg.MaxLatency, i,
					sn.Kind, sn.Len, sn.IRQ, sn.BranchPC, pn.Kind, pn.Len, pn.IRQ, pn.BranchPC)
			}
			spcs, _ := sn.Data.([]uint16)
			ppcs, _ := pn.Data.([]uint16)
			if len(spcs) != len(ppcs) {
				t.Fatalf("window [%d,%d] node %d payload length differs", cfg.MinLatency, cfg.MaxLatency, i)
			}
			for j := range spcs {
				if spcs[j] != ppcs[j] {
					t.Fatalf("window [%d,%d] node %d cycle %d: PC %#x vs %#x",
						cfg.MinLatency, cfg.MaxLatency, i, j, spcs[j], ppcs[j])
				}
			}
		}
	}
}

// stateKey is ulp430.System.StateKey as one comparable value.
func stateKey(s *ulp430.System) [2]uint64 {
	lo, hi := s.StateKey()
	return [2]uint64{lo, hi}
}

// TestRewindEqualsRestoreOnInterruptRuns is TestRewindEqualsRestore on
// the ULP430 with interrupts, on both engines and with the step memo on
// the packed one: two systems run the random interrupt schedules of
// TestEnginesAgreeOnInterruptRuns in lockstep, one marking before every
// cycle and the other taking a snapshot, and a random share of cycles is
// rewound and re-stepped up to twice, with Rewind on one and Restore on
// the other. Some rewinds follow a ForceIRQ that the rewind must drop.
// After every step and rewind the systems' full portable states
// (planes, staged inputs, cycle, memory, bus registers, read-data latch,
// IRQ line, error) must encode to the same bytes, with the same active
// cells, energy bound and memo counters. The rewound cycles must include
// memory writes.
func TestRewindEqualsRestoreOnInterruptRuns(t *testing.T) {
	runs := 6
	if testing.Short() {
		runs = 2
	}
	var rewinds, writes int
	for d := 0; d < runs; d++ {
		r := rand.New(rand.NewSource(int64(4_243 * (d + 1))))
		minLat := 1 + r.Intn(20)
		cfg := periph.Config{
			MinLatency:      minLat,
			MaxLatency:      minLat + r.Intn(12),
			ConcreteLatency: minLat + r.Intn(12),
		}
		img, err := isa.Assemble("irqrewind", concreteIRQProg(5+r.Intn(40), r.Intn(2) == 0))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range []gsim.Engine{gsim.EnginePacked, gsim.EngineScalar} {
			newSys := func() *ulp430.System {
				sys, err := ulp430.NewSystemEngine(e, irqCPU(t), cell.ULP65(), img, ulp430.ConcreteInputs, nil)
				if err != nil {
					t.Fatal(err)
				}
				sys.EnableInterrupts(cfg)
				sys.Sim.EnableMemo(0)
				sys.Reset()
				return sys
			}
			rw, rs := newSys(), newSys()
			mwr := gsim.CompilePort(irqCPU(t), irqCPU(t).Port("mwr"))
			var sn ulp430.SysSnapshot
			for c := 0; c < 3000 && !rs.Halted(); c++ {
				rw.Mark()
				rs.SnapshotInto(&sn)
				for forks := 0; ; forks++ {
					rw.Step()
					rs.Step()
					sameSystem(t, rw, rs, d, c, "step")
					if forks == 2 || r.Intn(3) != 0 {
						break
					}
					if v, _ := mwr.Uint(rw.Sim); v == 1 {
						writes++
					}
					if r.Intn(2) == 0 {
						rw.ForceIRQ(true)
						rs.ForceIRQ(true)
					}
					if err := rw.Rewind(); err != nil {
						t.Fatalf("run %d %v cycle %d: %v", d, e, c, err)
					}
					rs.Restore(&sn)
					sameSystem(t, rw, rs, d, c, "rewind")
					rewinds++
				}
			}
			if !rw.Halted() {
				t.Fatalf("run %d: %v engine did not halt", d, e)
			}
		}
	}
	t.Logf("rewinds %d, of a cycle that wrote memory %d", rewinds, writes)
	if writes == 0 {
		t.Fatal("no rewound cycle wrote memory")
	}
}

// sameSystem fails the test unless the rewound system rw and the
// restored system rs hold the same state.
func sameSystem(t *testing.T, rw, rs *ulp430.System, run, cycle int, after string) {
	t.Helper()
	if err := rs.Err(); err != nil {
		t.Fatalf("run %d cycle %d: %v", run, cycle, err)
	}
	var a, b ulp430.PortableState
	rw.CapturePortable(&a)
	rs.CapturePortable(&b)
	if !slices.Equal(ulp430.EncodePortable(&a), ulp430.EncodePortable(&b)) {
		t.Fatalf("run %d %v cycle %d after %s: system state differs from the restored system's",
			run, rw.Sim.Engine(), cycle, after)
	}
	if !slices.Equal(rw.Sim.ActiveCells(nil), rs.Sim.ActiveCells(nil)) ||
		rw.Sim.BoundEnergyFJ() != rs.Sim.BoundEnergyFJ() {
		t.Fatalf("run %d %v cycle %d after %s: activity or bound differs from the restored system's",
			run, rw.Sim.Engine(), cycle, after)
	}
	h1, m1 := rw.Sim.MemoStats()
	h2, m2 := rs.Sim.MemoStats()
	if h1 != h2 || m1 != m2 {
		t.Fatalf("run %d cycle %d after %s: memo %d/%d, restored %d/%d", run, cycle, after, h1, m1, h2, m2)
	}
}
