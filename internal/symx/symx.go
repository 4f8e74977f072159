// Package symx implements Algorithm 1 of the paper: input-independent
// gate activity analysis by symbolic simulation of an application binary
// on the gate-level processor netlist.
//
// The engine drives a ulp430.System in SymbolicInputs mode. Unknown (X)
// values propagate from input regions and port reads; when an X reaches
// the jump-condition logic (the paper's "X propagates to the inputs of
// the program counter"), the engine forks: it rewinds one cycle, forces
// the condition each way in turn, and explores both successors
// depth-first, exactly as Algorithm 1's stack of un-processed execution
// paths. A fork whose pre-branch processor state (flip-flops + RAM) has
// been seen before is not re-explored — the merging rule that lets the
// analysis terminate on input-dependent loops.
//
// Interrupts extend the same rule to asynchronous arrival: with a
// peripheral bus attached (ulp430.EnableInterrupts), an open symbolic
// arrival window drives the CPU's request line to X, and every
// interruptible instruction boundary inside the window
// (ulp430.IRQCondUnknown) is a fork point — arrived here versus
// deferred past this boundary. One cycle can fork twice (a conditional
// jump's EXEC cycle is also an instruction boundary): the resolve loop
// rewinds and re-steps until every control condition of the cycle is
// concrete, accumulating the forced directions, and the merge key mixes
// those forces so partially-resolved states are never conflated.
//
// The result is the annotated symbolic execution tree: segments of
// straight-line cycles whose per-cycle observations are collected by a
// caller-supplied Sink (package power provides the peak-power sink), and
// branch/end/merge terminals.
//
// The loop exists once: worker.runTask (parallel.go) explores one task's
// subtree, and every entry point runs it. Explore runs it at one worker,
// ExploreParallel across a worker pool, and RunRemoteTask (fleet.go) for
// one leased fleet task. What differs between them is the runner's
// forkHost — who owns a fork key and where a won fork's taken direction
// goes — and the tally its cycles and nodes are charged to.
//
// Exploration is engineered around the gate engine's snapshot costs:
// the one-cycle rewind copies nothing ahead of time (System.Mark before
// each cycle; Rewind rotates back the previous planes the latch kept and
// undoes the memory journal), and local fork snapshots are full plane
// copies (SnapshotInto) recycled through a per-worker pool the moment
// the pending direction has been restored.
package symx

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/ulp430"
)

// Budget exhaustion sentinels, matchable with errors.Is. Explore wraps
// them with the concrete limit and a diagnosis.
var (
	// ErrCycleBudget reports that exploration exceeded Options.MaxCycles.
	ErrCycleBudget = errors.New("cycle budget exhausted")
	// ErrNodeBudget reports that the tree exceeded Options.MaxNodes.
	ErrNodeBudget = errors.New("node budget exhausted")
)

// Sink observes every simulated cycle along the current path, with
// rewind support for depth-first exploration. Positions are cycle counts
// along the current root-to-here path.
type Sink interface {
	// OnCycle is called after each simulated cycle (the system is settled).
	OnCycle(sys *ulp430.System)
	// Pos returns the current path position (cycles since the root).
	Pos() int
	// Rewind discards observations at positions >= pos.
	Rewind(pos int)
	// Segment extracts the payload of the half-open range [from, Pos()),
	// to be stored on the tree node covering it.
	Segment(from int) interface{}
}

// NodeKind classifies how a tree segment terminates.
type NodeKind uint8

const (
	// KindBranch ends at an input-dependent conditional jump (or, with
	// IRQ set, an unresolved interrupt arrival); Taken and NotTaken are
	// its children.
	KindBranch NodeKind = iota
	// KindEnd ends with the application halting.
	KindEnd
	// KindMerge ends because the pre-branch state was already explored;
	// MergeTo is the equivalent branch node.
	KindMerge
)

// Node is one segment of the symbolic execution tree: Len straight-line
// cycles followed by a terminal. A node of a double-forked cycle (jump
// EXEC that is also an interruptible boundary) may have Len 0.
type Node struct {
	// ID is the node's index in Tree.Nodes.
	ID int
	// Len is the number of cycles in the segment.
	Len int
	// Data is the sink payload for this segment.
	Data interface{}
	// Kind is the terminal classification.
	Kind NodeKind
	// IRQ marks a KindBranch/KindMerge that forks on interrupt arrival
	// (Taken = arrived at this boundary, NotTaken = deferred) rather than
	// on a jump condition.
	IRQ bool
	// BranchPC is the address of the forking jump, or of the instruction
	// boundary for an IRQ fork (KindBranch/KindMerge).
	BranchPC uint16
	// Taken and NotTaken are the successors of a KindBranch node. The
	// forked cycle itself is the first cycle of each child segment.
	Taken, NotTaken *Node
	// MergeTo is the already-explored branch node (KindMerge).
	MergeTo *Node

	// key is the merge key of a fork terminal (KindBranch/KindMerge):
	// the 128-bit pre-branch state key mixed with the accumulated fork
	// forces. The runner claims keys as it explores and records them
	// here; assembly resolves branch-versus-merge in canonical order.
	key ForkKey
	// seq is the node's index in its task's creation order — the
	// coordinate checkpoint pub records use to graft a published task
	// onto its publisher's branch node across a restart.
	seq int
	// task and streamStart locate the segment inside the exploration
	// that produced it: the owning task and the index of the segment's
	// first observation in that task's observation stream. Canonical
	// observation order is (final ID, stream index) — the sort key the
	// sink merge uses. A one-worker run without a checkpoint is one task.
	task        int
	streamStart int
}

// Tree is the symbolic execution tree of one application.
type Tree struct {
	// Root is the entry segment (starts at the first cycle after reset).
	Root *Node
	// Nodes lists all segments in creation order.
	Nodes []*Node
	// Paths counts explored terminals (KindEnd + KindMerge).
	Paths int
	// Cycles counts total simulated cycles (including re-simulated fork
	// cycles once per direction).
	Cycles int
}

// Progress is a snapshot of exploration statistics, delivered to the
// Options.Progress hook.
type Progress struct {
	// Cycles is the total simulated cycle count so far.
	Cycles int
	// Nodes is the number of tree segments created so far.
	Nodes int
	// Paths is the number of explored terminals so far.
	Paths int
}

// Options bound the exploration.
type Options struct {
	// MaxCycles caps total simulated cycles (default 2,000,000).
	MaxCycles int
	// MaxNodes caps tree nodes (default 10,000).
	MaxNodes int
	// DisableMerge turns off Algorithm 1's seen-state path merging —
	// exploration degenerates to a pure tree. Only useful for the
	// ablation study quantifying what merging saves; input-dependent
	// wait loops will not terminate with merging disabled.
	DisableMerge bool
	// Ctx, when non-nil, is polled every cancelCheckEvery simulated
	// cycles; once it is canceled or its deadline passes, Explore
	// returns promptly with an error wrapping Ctx.Err() (matchable via
	// errors.Is with context.Canceled / context.DeadlineExceeded).
	Ctx context.Context
	// Progress, when non-nil, is called from the exploring goroutine
	// roughly every ProgressEvery simulated cycles and once when
	// exploration finishes (on success or failure). It must be fast and
	// must not call back into the exploration.
	Progress func(Progress)
	// ProgressEvery is the Progress reporting period in simulated
	// cycles (default 8192).
	ProgressEvery int
}

// cancelCheckEvery is the context-poll period in simulated cycles. One
// simulated cycle costs ~0.25 ms of wall time (a full netlist settle),
// so even a fine period keeps Ctx.Err() invisible in profiles while
// bounding cancellation latency to a few milliseconds.
const cancelCheckEvery = 32

func (o Options) withDefaults() Options {
	if o.MaxCycles == 0 {
		o.MaxCycles = 2_000_000
	}
	if o.MaxNodes == 0 {
		o.MaxNodes = 10_000
	}
	if o.ProgressEvery <= 0 {
		o.ProgressEvery = 8192
	}
	return o
}

// ForkForces is the set of control-condition overrides a forked cycle is
// re-stepped under. A double-forked cycle accumulates both. A published
// task carries the forces its first cycle is re-stepped under: nested in
// a RemoteTask on the fleet wire, flattened into a journal pub record.
type ForkForces struct {
	BrEn   bool `json:"bre,omitempty"` // force the jump condition
	BrVal  bool `json:"brv,omitempty"`
	IrqEn  bool `json:"ire,omitempty"` // force the interrupt arrival
	IrqVal bool `json:"irv,omitempty"`
}

// with returns f extended by one more forced condition.
func (f ForkForces) with(irq, dir bool) ForkForces {
	if irq {
		f.IrqEn, f.IrqVal = true, dir
	} else {
		f.BrEn, f.BrVal = true, dir
	}
	return f
}

// ForkKey is the exploration's 128-bit merge key: the system's dual
// state hash (ulp430.System.StateKey) mixed with the accumulated fork
// forces, one independent multiplier per word. Two states merge only
// when both words agree — a joint collision across two independently
// mixed 64-bit hashes — which is what lets the engine treat key
// equality as state equality (DESIGN.md "Merge keys"). Key values are
// transient: they appear in the checkpoint journal and the fleet wire
// protocol (both private, single-run formats) but never in a sealed
// Report, so the key function may evolve freely.
type ForkKey struct {
	Lo, Hi uint64
}

// key folds the force set into the merge key: the same pre-cycle state
// under different already-decided directions has different futures.
func (f ForkForces) key() ForkKey {
	var k uint64
	if f.BrEn {
		k |= 1
	}
	if f.BrVal {
		k |= 2
	}
	if f.IrqEn {
		k |= 4
	}
	if f.IrqVal {
		k |= 8
	}
	return ForkKey{Lo: k * 0x9E3779B97F4A7C15, Hi: k * 0xA24BAED4963EE407}
}

// stateKey is the merge key of the system's current state under the
// accumulated forces.
func stateKey(sys *ulp430.System, pending ForkForces) ForkKey {
	lo, hi := sys.StateKey()
	fk := pending.key()
	return ForkKey{Lo: lo ^ fk.Lo, Hi: hi ^ fk.Hi}
}

// Budget errors are built in one place so every entry point and the
// fleet coordinator fail with byte-identical text.
func cycleBudgetErr(max int) error {
	return fmt.Errorf("symx: exceeded %d cycles (unbounded exploration? add smaller inputs or check for un-merged input-dependent loops): %w", max, ErrCycleBudget)
}

func nodeBudgetErr(max int) error {
	return fmt.Errorf("symx: exceeded %d tree nodes: %w", max, ErrNodeBudget)
}

// Explore runs Algorithm 1 to completion on the calling goroutine. It is
// ExploreParallel at one worker — the same runner, which at one worker
// keeps every fork on its local stack — with sink adapted to the task
// protocol by no-op task methods. The system must be freshly created in
// SymbolicInputs mode; Explore performs the reset itself.
func Explore(sys *ulp430.System, sink Sink, opts Options) (*Tree, error) {
	res, err := ExploreParallel(ParallelOptions{
		Options: opts,
		Workers: 1,
		NewWorker: func(int) (*ulp430.System, WorkerSink, error) {
			return sys, oneTask{sink}, nil
		},
	})
	if err != nil {
		return nil, err
	}
	return res.Tree, nil
}

// oneTask adapts a plain Sink to WorkerSink for a one-worker exploration:
// a single root task at position 0, no seeds, one fold over the whole
// run, and nothing to journal.
type oneTask struct{ Sink }

func (oneTask) BeginTask(task, basePos int, seed interface{}) {}
func (oneTask) EndTask()                                      {}
func (oneTask) NewSegment()                                   {}
func (oneTask) SpawnSeed(pos int) interface{}                 { return nil }
func (oneTask) MarshalTask() ([]byte, error)                  { return nil, nil }

// IRQForks counts the branch nodes that fork on interrupt arrival — the
// number of distinct arrival decisions the exploration covered.
func (t *Tree) IRQForks() int {
	n := 0
	for _, nd := range t.Nodes {
		if nd.Kind == KindBranch && nd.IRQ {
			n++
		}
	}
	return n
}

// CountKind returns the number of nodes with the given kind.
func (t *Tree) CountKind(k NodeKind) int {
	n := 0
	for _, nd := range t.Nodes {
		if nd.Kind == k {
			n++
		}
	}
	return n
}

// Walk visits every node (parents before children).
func (t *Tree) Walk(f func(*Node)) {
	var rec func(*Node)
	visited := make(map[int]bool)
	rec = func(n *Node) {
		if n == nil || visited[n.ID] {
			return
		}
		visited[n.ID] = true
		f(n)
		rec(n.NotTaken)
		rec(n.Taken)
	}
	rec(t.Root)
}
