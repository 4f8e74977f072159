package symx

import (
	"sync"
	"testing"

	"repro/internal/cell"
	"repro/internal/isa"
	"repro/internal/netlist"
	"repro/internal/periph"
	"repro/internal/ulp430"
)

var (
	cpuOnce sync.Once
	cpuNet  *netlist.Netlist
)

func sharedCPU(t testing.TB) *netlist.Netlist {
	t.Helper()
	cpuOnce.Do(func() {
		n, err := ulp430.BuildCPU()
		if err != nil {
			t.Fatalf("BuildCPU: %v", err)
		}
		cpuNet = n
	})
	return cpuNet
}

// countSink records one int per cycle (the architectural PC when known).
type countSink struct {
	pcs []uint16
}

func (c *countSink) OnCycle(sys *ulp430.System) {
	pc, _ := sys.PC()
	c.pcs = append(c.pcs, pc)
}
func (c *countSink) Pos() int       { return len(c.pcs) }
func (c *countSink) Rewind(pos int) { c.pcs = c.pcs[:pos] }
func (c *countSink) Segment(from int) interface{} {
	return append([]uint16(nil), c.pcs[from:]...)
}

func explore(t *testing.T, src string, opts Options) (*Tree, *countSink) {
	t.Helper()
	img, err := isa.Assemble("t", src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	sys, err := ulp430.NewSystem(sharedCPU(t), cell.ULP65(), img, ulp430.SymbolicInputs, nil)
	if err != nil {
		t.Fatal(err)
	}
	sink := &countSink{}
	tree, err := Explore(sys, sink, opts)
	if err != nil {
		t.Fatalf("explore: %v", err)
	}
	return tree, sink
}

const haltSeq = `
    mov #1, &0x0126
spin: jmp spin
`

func TestStraightLineNoFork(t *testing.T) {
	tree, _ := explore(t, `
.org 0xf000
.entry main
main:
    mov #3, r4
    add #4, r4
`+haltSeq, Options{})
	if len(tree.Nodes) != 1 || tree.Root.Kind != KindEnd {
		t.Fatalf("nodes=%d kind=%v", len(tree.Nodes), tree.Root.Kind)
	}
	if tree.Paths != 1 {
		t.Fatalf("paths=%d", tree.Paths)
	}
	if tree.Root.Len == 0 || tree.Root.Len != tree.Cycles {
		t.Fatalf("len=%d cycles=%d", tree.Root.Len, tree.Cycles)
	}
}

func TestSingleInputBranchForksTwoPaths(t *testing.T) {
	tree, _ := explore(t, `
.org 0x0200
v: .input 1
.org 0xf000
.entry main
main:
    mov &v, r4
    cmp #5, r4
    jeq yes
    mov #111, r5
    jmp end
yes:
    mov #222, r5
end:
`+haltSeq, Options{})
	if tree.Paths != 2 {
		t.Fatalf("paths=%d", tree.Paths)
	}
	if tree.Root.Kind != KindBranch {
		t.Fatalf("root kind %v", tree.Root.Kind)
	}
	if tree.Root.Taken == nil || tree.Root.NotTaken == nil {
		t.Fatal("branch children missing")
	}
	if tree.Root.Taken.Kind != KindEnd || tree.Root.NotTaken.Kind != KindEnd {
		t.Fatalf("child kinds %v %v", tree.Root.Taken.Kind, tree.Root.NotTaken.Kind)
	}
	if tree.Root.BranchPC == 0 {
		t.Fatal("branch PC not recorded")
	}
	// Children paths have different lengths (different code executed).
	if tree.Root.Taken.Len == tree.Root.NotTaken.Len {
		t.Log("note: taken/not-taken lengths equal (acceptable but unexpected)")
	}
}

func TestInputWaitLoopMerges(t *testing.T) {
	// tHold-style: wait for port input to exceed threshold. The
	// not-exceeded path returns to an identical processor state, so the
	// second encounter of the branch merges instead of looping forever.
	tree, _ := explore(t, `
.org 0xf000
.entry main
main:
    mov #0x0080, &0x0120  ; hold watchdog (standard MSP430 practice);
                          ; its free-running counter would otherwise make
                          ; every loop iteration a distinct state
wait:
    mov &0x0122, r4   ; P1IN read: X
    cmp #100, r4
    jl wait           ; loop while r4 < 100
    mov #1, r5
`+haltSeq, Options{})
	if tree.CountKind(KindMerge) == 0 {
		t.Fatalf("expected a merge node; kinds: branch=%d end=%d merge=%d",
			tree.CountKind(KindBranch), tree.CountKind(KindEnd), tree.CountKind(KindMerge))
	}
	if tree.CountKind(KindEnd) == 0 {
		t.Fatal("expected an end node (threshold-exceeded path)")
	}
	// The merge must point back to an explored branch node.
	var merge *Node
	tree.Walk(func(n *Node) {
		if n.Kind == KindMerge {
			merge = n
		}
	})
	if merge.MergeTo == nil || merge.MergeTo.Kind != KindBranch {
		t.Fatal("merge target wrong")
	}
}

func TestCountedInputLoopForksPerIteration(t *testing.T) {
	// Loop over 3 input words, branching on each value: 2^3 leaf paths
	// (with shared prefixes).
	tree, _ := explore(t, `
.org 0x0200
vals: .input 3
cnt:  .space 1
.org 0xf000
.entry main
main:
    mov #vals, r6
    mov #3, r7
    clr r8
lp: mov @r6+, r4
    cmp #50, r4
    jl small
    inc r8
small:
    dec r7
    jnz lp
    mov r8, &cnt
`+haltSeq, Options{})
	// Iterations 1 and 2 fork fully (1+2 branch nodes). At iteration 3
	// the two orderings that produced r8=1 arrive in identical states, so
	// one of them merges: 3 distinct branch states + 1 merge, and the six
	// distinct (iteration-3 branch, outcome) suffixes halt.
	if got := tree.CountKind(KindBranch); got != 6 {
		t.Fatalf("branch nodes = %d, want 6", got)
	}
	if got := tree.CountKind(KindMerge); got != 1 {
		t.Fatalf("merge nodes = %d, want 1", got)
	}
	if tree.Paths != 7 {
		t.Fatalf("paths = %d, want 7", tree.Paths)
	}
}

func TestStateMergingCollapsesEquivalentPaths(t *testing.T) {
	// Two branches whose both outcomes rejoin with identical state: the
	// second branch is encountered in the same state on both paths of
	// the first → one merge.
	tree, _ := explore(t, `
.org 0x0200
v: .input 1
.org 0xf000
.entry main
main:
    mov &v, r4
    cmp #5, r4
    jeq j1           ; fork 1
j1: ; both outcomes land here with identical state
    cmp #9, r4
    jeq j2           ; fork 2: state same on both paths -> merge
    mov #1, r5
j2:
`+haltSeq, Options{})
	if got := tree.CountKind(KindMerge); got != 1 {
		t.Fatalf("merge nodes = %d, want 1 (kinds: branch=%d end=%d)",
			got, tree.CountKind(KindBranch), tree.CountKind(KindEnd))
	}
}

func TestDeterminism(t *testing.T) {
	src := `
.org 0x0200
vals: .input 2
.org 0xf000
.entry main
main:
    mov &vals, r4
    cmp #1, r4
    jeq a
a:  mov &vals+2, r5
    cmp #2, r5
    jl b
b:
` + haltSeq
	t1, s1 := explore(t, src, Options{})
	t2, s2 := explore(t, src, Options{})
	if len(t1.Nodes) != len(t2.Nodes) || t1.Paths != t2.Paths || t1.Cycles != t2.Cycles {
		t.Fatalf("nondeterministic: %d/%d/%d vs %d/%d/%d",
			len(t1.Nodes), t1.Paths, t1.Cycles, len(t2.Nodes), t2.Paths, t2.Cycles)
	}
	for i := range t1.Nodes {
		if t1.Nodes[i].Len != t2.Nodes[i].Len || t1.Nodes[i].Kind != t2.Nodes[i].Kind {
			t.Fatalf("node %d differs", i)
		}
	}
	_ = s1
	_ = s2
}

func TestSegmentPayloads(t *testing.T) {
	tree, _ := explore(t, `
.org 0x0200
v: .input 1
.org 0xf000
.entry main
main:
    mov &v, r4
    cmp #5, r4
    jeq yes
    mov #1, r5
    jmp end
yes:
    mov #2, r5
end:
`+haltSeq, Options{})
	tree.Walk(func(n *Node) {
		pcs, ok := n.Data.([]uint16)
		if !ok {
			t.Fatalf("node %d payload type %T", n.ID, n.Data)
		}
		if len(pcs) != n.Len {
			t.Fatalf("node %d payload len %d != Len %d", n.ID, len(pcs), n.Len)
		}
	})
}

func TestMaxCyclesGuard(t *testing.T) {
	img, err := isa.Assemble("t", `
.org 0xf000
.entry main
main: jmp main
`)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := ulp430.NewSystem(sharedCPU(t), cell.ULP65(), img, ulp430.SymbolicInputs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Explore(sys, &countSink{}, Options{MaxCycles: 500}); err == nil {
		t.Fatal("expected cycle-limit error")
	}
}

func TestComputedBranchTargetRejected(t *testing.T) {
	img, err := isa.Assemble("t", `
.org 0x0200
v: .input 1
.org 0xf000
.entry main
main:
    mov &v, r4
    br r4            ; PC <- X
`+haltSeq)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := ulp430.NewSystem(sharedCPU(t), cell.ULP65(), img, ulp430.SymbolicInputs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Explore(sys, &countSink{}, Options{MaxCycles: 5000}); err == nil {
		t.Fatal("expected PC-X error")
	}
}

// exploreIRQ is explore with the peripheral bus attached: the program
// runs under symbolic inputs with the given arrival window.
func exploreIRQ(t *testing.T, src string, cfg periph.Config, opts Options) *Tree {
	t.Helper()
	img, err := isa.Assemble("t", src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	sys, err := ulp430.NewSystem(sharedCPU(t), cell.ULP65(), img, ulp430.SymbolicInputs, nil)
	if err != nil {
		t.Fatal(err)
	}
	sys.EnableInterrupts(cfg)
	tree, err := Explore(sys, &countSink{}, opts)
	if err != nil {
		t.Fatalf("explore: %v", err)
	}
	return tree
}

const irqIdleProg = `
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
` + haltSeq + `
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

// TestIRQWindowForkCount is the fork-accounting sanity check: a symbolic
// arrival window must fork at least once and at most once per cycle of
// the window, IRQForks must agree with a manual walk of the tree, and
// with no merges in the idle loop every fork contributes exactly one
// extra path (delivered-here vs not-yet chain).
func TestIRQWindowForkCount(t *testing.T) {
	const minLat, maxLat = 6, 14
	tree := exploreIRQ(t, irqIdleProg, periph.Config{MinLatency: minLat, MaxLatency: maxLat}, Options{})

	forks := tree.IRQForks()
	if forks == 0 {
		t.Fatal("symbolic arrival window produced no IRQ forks")
	}
	if window := maxLat - minLat + 1; forks > window {
		t.Fatalf("%d IRQ forks exceed the %d-cycle arrival window", forks, window)
	}
	manual := 0
	for _, n := range tree.Nodes {
		if n.Kind == KindBranch && n.IRQ {
			manual++
			if n.Taken == nil || n.NotTaken == nil {
				t.Fatal("IRQ fork node missing a child")
			}
		}
	}
	if manual != forks {
		t.Fatalf("IRQForks() = %d but the tree holds %d IRQ branch nodes", forks, manual)
	}
	if tree.Paths != forks+1 {
		t.Fatalf("paths = %d, want forks+1 = %d (one arrival cycle per fork plus the window-end delivery)",
			tree.Paths, forks+1)
	}
}

// TestIRQWindowWidthGrowsForks pins the monotone relation between the
// arrival window and exploration size: a wider window can only add
// arrival interleavings.
func TestIRQWindowWidthGrowsForks(t *testing.T) {
	narrow := exploreIRQ(t, irqIdleProg, periph.Config{MinLatency: 6, MaxLatency: 8}, Options{})
	wide := exploreIRQ(t, irqIdleProg, periph.Config{MinLatency: 6, MaxLatency: 22}, Options{})
	if narrow.IRQForks() >= wide.IRQForks() {
		t.Fatalf("window widening did not grow forks: narrow %d, wide %d",
			narrow.IRQForks(), wide.IRQForks())
	}
}

// TestDeterministicIRQDoesNotFork: a timer-only interrupt load is fully
// deterministic, so the exploration stays a single path.
func TestDeterministicIRQDoesNotFork(t *testing.T) {
	tree := exploreIRQ(t, `
.org 0xf000
.entry main
main:
    mov #0x0A00, r1
    mov #0x0080, &0x0120
    clr r10
    mov #12, &0x0144
    mov #3, &0x0140
    eint
wait:
    tst r10
    jz  wait
    dint
`+haltSeq+`
timer_isr:
    mov #1, r10
    reti
adc_isr:
    reti
.org 0xfff8
.word timer_isr
.word adc_isr
`, periph.Config{}, Options{})
	if tree.IRQForks() != 0 {
		t.Fatalf("deterministic timer arrival forked %d times", tree.IRQForks())
	}
	if tree.Paths != 1 {
		t.Fatalf("paths = %d, want 1", tree.Paths)
	}
}
