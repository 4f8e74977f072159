package symx

import (
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cell"
	"repro/internal/isa"
	"repro/internal/periph"
	"repro/internal/power"
	"repro/internal/ulp430"
)

// workerCountSink is countSink extended with the WorkerSink task
// protocol: positions stay absolute via the task base offset. It records
// no reduction candidates — the parallel tree tests compare trees, whose
// segment payloads carry the observations — so a task's serialized
// observations are empty.
type workerCountSink struct {
	pcs  []uint16
	base int
}

func (c *workerCountSink) OnCycle(sys *ulp430.System) {
	pc, _ := sys.PC()
	c.pcs = append(c.pcs, pc)
}
func (c *workerCountSink) Pos() int       { return c.base + len(c.pcs) }
func (c *workerCountSink) Rewind(pos int) { c.pcs = c.pcs[:pos-c.base] }
func (c *workerCountSink) Segment(from int) interface{} {
	return append([]uint16(nil), c.pcs[from-c.base:]...)
}
func (c *workerCountSink) BeginTask(task, basePos int, seed interface{}) {
	c.base = basePos
	c.pcs = c.pcs[:0]
}
func (c *workerCountSink) EndTask()                      {}
func (c *workerCountSink) NewSegment()                   {}
func (c *workerCountSink) SpawnSeed(pos int) interface{} { return nil }
func (c *workerCountSink) MarshalTask() ([]byte, error)  { return nil, nil }

// exploreParallelTree runs ExploreParallel on src with the given worker
// count (irq non-nil attaches the peripheral bus).
func exploreParallelTree(t *testing.T, src string, irq *periph.Config, workers int, opts Options) (*Tree, error) {
	t.Helper()
	img, err := isa.Assemble("t", src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	res, err := ExploreParallel(ParallelOptions{
		Options: opts,
		Workers: workers,
		NewWorker: func(worker int) (*ulp430.System, WorkerSink, error) {
			sys, err := ulp430.NewSystem(sharedCPU(t), cell.ULP65(), img, ulp430.SymbolicInputs, nil)
			if err != nil {
				return nil, nil, err
			}
			if irq != nil {
				sys.EnableInterrupts(*irq)
			}
			return sys, &workerCountSink{}, nil
		},
	})
	if err != nil {
		return nil, err
	}
	return res.Tree, nil
}

// requireTreesEqual asserts full structural equality: IDs, kinds, lengths,
// fork metadata, child/merge wiring, segment payloads, and the tree-level
// statistics.
func requireTreesEqual(t *testing.T, want, got *Tree, label string) {
	t.Helper()
	if len(want.Nodes) != len(got.Nodes) || want.Paths != got.Paths || want.Cycles != got.Cycles {
		t.Fatalf("%s: tree stats differ: nodes %d/%d paths %d/%d cycles %d/%d", label,
			len(want.Nodes), len(got.Nodes), want.Paths, got.Paths, want.Cycles, got.Cycles)
	}
	id := func(n *Node) int {
		if n == nil {
			return -1
		}
		return n.ID
	}
	for i := range want.Nodes {
		w, g := want.Nodes[i], got.Nodes[i]
		if w.ID != g.ID || w.Len != g.Len || w.Kind != g.Kind || w.IRQ != g.IRQ || w.BranchPC != g.BranchPC {
			t.Fatalf("%s: node %d differs: {id %d len %d kind %v irq %v pc %#x} vs {id %d len %d kind %v irq %v pc %#x}",
				label, i, w.ID, w.Len, w.Kind, w.IRQ, w.BranchPC, g.ID, g.Len, g.Kind, g.IRQ, g.BranchPC)
		}
		if id(w.Taken) != id(g.Taken) || id(w.NotTaken) != id(g.NotTaken) || id(w.MergeTo) != id(g.MergeTo) {
			t.Fatalf("%s: node %d wiring differs: taken %d/%d nottaken %d/%d merge %d/%d",
				label, i, id(w.Taken), id(g.Taken), id(w.NotTaken), id(g.NotTaken), id(w.MergeTo), id(g.MergeTo))
		}
		if !reflect.DeepEqual(w.Data, g.Data) {
			t.Fatalf("%s: node %d payload differs", label, i)
		}
	}
	if id(want.Root) != id(got.Root) {
		t.Fatalf("%s: root differs: %d vs %d", label, id(want.Root), id(got.Root))
	}
}

var parallelTreePrograms = []struct {
	name string
	src  string
}{
	{"straightLine", `
.org 0xf000
.entry main
main:
    mov #3, r4
    add #4, r4
` + haltSeq},
	{"singleBranch", `
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
` + haltSeq},
	{"waitLoopMerge", `
.org 0xf000
.entry main
main:
    mov #0x0080, &0x0120
wait:
    mov &0x0122, r4
    cmp #100, r4
    jl wait
    mov #1, r5
` + haltSeq},
	{"countedLoop", `
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
` + haltSeq},
	{"doubleBranchMerge", `
.org 0x0200
v: .input 1
.org 0xf000
.entry main
main:
    mov &v, r4
    cmp #5, r4
    jeq j1
j1:
    cmp #9, r4
    jeq j2
    mov #1, r5
j2:
` + haltSeq},
}

// exploreTree runs the production sequential Explore on src (irq
// non-nil attaches the peripheral bus).
func exploreTree(t *testing.T, src string, irq *periph.Config, opts Options) (*Tree, error) {
	t.Helper()
	img, err := isa.Assemble("t", src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	sys, err := ulp430.NewSystem(sharedCPU(t), cell.ULP65(), img, ulp430.SymbolicInputs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if irq != nil {
		sys.EnableInterrupts(*irq)
	}
	return Explore(sys, &countSink{}, opts)
}

// requireMatchesReference runs Explore and ExploreParallel at each worker
// count on src and requires each to reproduce the reference explorer:
// the same tree (IDs, kinds, wiring, payloads, Paths, Cycles), or the
// same error text.
func requireMatchesReference(t *testing.T, label, src string, irq *periph.Config, opts Options, workers ...int) {
	t.Helper()
	want, wantErr := refTree(t, src, irq, opts)
	check := func(engine string, got *Tree, err error) {
		t.Helper()
		if wantErr != nil || err != nil {
			if wantErr == nil || err == nil || err.Error() != wantErr.Error() {
				t.Fatalf("%s %s: error mismatch:\nref: %v\ngot: %v", label, engine, wantErr, err)
			}
			return
		}
		requireTreesEqual(t, want, got, label+" "+engine)
	}
	got, err := exploreTree(t, src, irq, opts)
	check("Explore", got, err)
	for _, w := range workers {
		got, err := exploreParallelTree(t, src, irq, w, opts)
		check(fmt.Sprintf("workers=%d", w), got, err)
	}
}

// TestParallelTreeMatchesSequential is the core determinism contract at
// the tree level: Explore and ExploreParallel at every worker count must
// build the reference explorer's tree — same creation-order IDs, kinds,
// fork wiring, payloads, Paths, and Cycles.
func TestParallelTreeMatchesSequential(t *testing.T) {
	for _, prog := range parallelTreePrograms {
		requireMatchesReference(t, prog.name, prog.src, nil, Options{}, 1, 2, 4, 8)
	}
}

// TestParallelIRQTreeMatchesSequential extends the contract to
// interrupt forks: the symbolic arrival window multiplies the tree, and
// every engine must reproduce it exactly, including IRQ fork flags and
// arrival-order node IDs.
func TestParallelIRQTreeMatchesSequential(t *testing.T) {
	cfgs := []periph.Config{
		{MinLatency: 6, MaxLatency: 14},
		{MinLatency: 6, MaxLatency: 22},
		{MinLatency: 3, MaxLatency: 4},
	}
	for _, cfg := range cfgs {
		cfg := cfg
		label := fmt.Sprintf("window [%d,%d]", cfg.MinLatency, cfg.MaxLatency)
		requireMatchesReference(t, label, irqIdleProg, &cfg, Options{}, 1, 2, 4, 8)
		if ref, _ := refTree(t, irqIdleProg, &cfg, Options{}); ref.IRQForks() == 0 {
			t.Fatalf("%s: no IRQ forks", label)
		}
	}
}

// TestParallelOneWorkerNeverPublishes: without a checkpoint a lone worker
// has no peer to feed, so it keeps every fork on its local stack and the
// whole tree is one task — the path Explore relies on for its speed.
func TestParallelOneWorkerNeverPublishes(t *testing.T) {
	for _, prog := range parallelTreePrograms[3:] {
		tree, err := exploreParallelTree(t, prog.src, nil, 1, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if tree.CountKind(KindBranch) == 0 {
			t.Fatalf("%s: no forks to publish", prog.name)
		}
		for _, n := range tree.Nodes {
			if n.task != 0 {
				t.Fatalf("%s: node %d belongs to task %d: a one-worker run published a fork", prog.name, n.ID, n.task)
			}
		}
	}
}

// TestParallelRepeatedRunsIdentical re-runs the same parallel exploration
// several times at a fixed worker count: scheduler interleaving must not
// leak into the result.
func TestParallelRepeatedRunsIdentical(t *testing.T) {
	src := parallelTreePrograms[3].src // countedLoop: widest tree of the set
	first, err := exploreParallelTree(t, src, nil, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		got, err := exploreParallelTree(t, src, nil, 4, Options{})
		if err != nil {
			t.Fatal(err)
		}
		requireTreesEqual(t, first, got, fmt.Sprintf("repeat %d", i))
	}
}

// TestParallelBudgetErrorParity: budget exhaustion must fail exactly as
// the reference explorer does — same sentinel, same message — in every
// engine at any worker count.
func TestParallelBudgetErrorParity(t *testing.T) {
	spin := `
.org 0xf000
.entry main
main: jmp main
`
	if _, err := refTree(t, spin, nil, Options{MaxCycles: 500}); !errors.Is(err, ErrCycleBudget) {
		t.Fatalf("reference: want ErrCycleBudget, got %v", err)
	}
	requireMatchesReference(t, "cycle budget", spin, nil, Options{MaxCycles: 500}, 1, 2, 4)

	// Node budget, on a forking program.
	forky := parallelTreePrograms[3].src
	if _, err := refTree(t, forky, nil, Options{MaxNodes: 3}); !errors.Is(err, ErrNodeBudget) {
		t.Fatalf("reference: want ErrNodeBudget, got %v", err)
	}
	requireMatchesReference(t, "node budget", forky, nil, Options{MaxNodes: 3}, 1, 2, 4)
}

// TestParallelDisableMerge: with merging off the exploration degenerates
// to a pure tree in every engine; the countedLoop program stays finite.
func TestParallelDisableMerge(t *testing.T) {
	src := parallelTreePrograms[3].src
	requireMatchesReference(t, "disableMerge", src, nil, Options{DisableMerge: true}, 1, 2, 4)
	ref, err := refTree(t, src, nil, Options{DisableMerge: true})
	if err != nil {
		t.Fatal(err)
	}
	if ref.CountKind(KindMerge) != 0 {
		t.Fatal("DisableMerge left merge nodes in the tree")
	}
}

// TestSnapPoolDoubleFreePanics pins the pool's ownership guard: putting
// the same snapshot twice is a fork bookkeeping bug and must panic
// rather than corrupt a restore.
func TestSnapPoolDoubleFreePanics(t *testing.T) {
	var p snapPool
	sn := p.take()
	p.put(sn)
	defer func() {
		if recover() == nil {
			t.Fatal("double put did not panic")
		}
	}()
	p.put(sn)
}

// TestTaskStateMustFit runs a remote task whose start state has its
// current value plane cut to one word — what a corrupt journal or
// fleet record decodes to. The task must fail with the restore's error
// instead of resuming over the planes of the system's previous path.
func TestTaskStateMustFit(t *testing.T) {
	img, err := isa.Assemble("t", parallelTreePrograms[0].src)
	if err != nil {
		t.Fatal(err)
	}
	newSys := func() *ulp430.System {
		sys, err := ulp430.NewSystem(sharedCPU(t), cell.ULP65(), img, ulp430.SymbolicInputs, nil)
		if err != nil {
			t.Fatal(err)
		}
		sys.Reset()
		return sys
	}
	donor := newSys()
	for c := 0; c < 20; c++ {
		donor.Step()
	}
	var st ulp430.PortableState
	donor.CapturePortableAt(donor.Snapshot(), &st)
	enc := ulp430.EncodePortable(&st)
	// The encoding opens with a 4-byte magic and PlaneV as a 32-bit
	// word count followed by the words; keep only the first word.
	words := int(binary.LittleEndian.Uint32(enc[4:8]))
	cut := append([]byte(nil), enc[:4]...)
	cut = binary.LittleEndian.AppendUint32(cut, 1)
	cut = append(cut, enc[8:16]...)
	cut = append(cut, enc[8+8*words:]...)

	_, err = RunRemoteTask(newSys(), &workerCountSink{}, Options{}, power.Codec{},
		RemoteTask{ID: 3, State: cut}, nil, 0, 0)
	if err == nil || !strings.Contains(err.Error(), "PlaneV has 1 words") {
		t.Fatalf("RunRemoteTask = %v, want the short-plane restore error", err)
	}
}
