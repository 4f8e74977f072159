// The Algorithm-1 runner and work-stealing parallel exploration.
//
// worker.runTask is the exploration loop; every entry point runs it.
// ExploreParallel runs it over a bounded pool of worker goroutines, each
// owning a private System and sink, with the in-process fork host
// (localHost). Work is partitioned at fork points: when a worker forks it
// continues depth-first down the not-taken direction and either keeps the
// taken direction on a worker-local LIFO stack (pooled snapshot,
// per-worker free pool) or — when the shared queue is starving — publishes
// it as a portable task any worker can steal (self-contained
// ulp430.PortableState: memory as a sparse diff against the loaded
// image, captured in one O(memory) rewind-and-compare pass). A worker whose local stack
// still holds old forks donates its oldest one when it notices idle peers:
// the oldest fork roots the largest unexplored subtree, the classic
// steal-granularity rule. A lone worker has no peers and never publishes
// outside checkpoint mode, so Explore (one worker) keeps every fork local.
//
// Determinism. The sealed Report must be bit-identical at any worker
// count, which two mechanisms guarantee:
//
//  1. Every fork key (pre-branch state hash x accumulated forces) is
//     CLAIMED in a sharded concurrent table before either direction is
//     explored. Exactly one encounter — whichever raced first — wins and
//     explores both children; every other encounter records the key and
//     stops. No subtree is ever explored twice, so total simulated
//     cycles and node counts are the same at every worker count (which
//     is also what lets the cycle/node budgets be enforced with plain
//     shared atomics).
//
//  2. Which encounter *canonically* owns the subtree is decided after
//     the workers join, by re-walking the fork graph in depth-first
//     order (not-taken first, LIFO resumption of taken directions) with
//     a fresh seen-map: the canonically-first encounter of each key
//     becomes the KindBranch node — grafting the claimant's children if
//     a later encounter had won the race — and the rest become KindMerge
//     nodes pointing at it. Because gate simulation is deterministic, a
//     subtree's segments depend only on the (state, forces) pair at its
//     root, so grafting is exact: the assembled tree, including
//     creation-order node IDs, Paths, and Cycles, is the one a
//     single-worker run builds.
//
// The same canonical order also serializes the sink: observations are
// ordered by (final node ID, within-task stream index), which is exactly
// the single-worker observation order, so an order-sensitive reduction
// (peak records with first-wins tie-breaking, top-k insertion) folds one
// scope at a time and replays the scopes' candidates in canonical order,
// reproducing the single-worker result bit for bit (see
// power.MergeParallelReplay). A scope may only hold observations whose
// exploration order is their canonical order, and only this package knows
// where that stops holding: wherever a claim can be grafted, because the
// subtree explored next may be re-anchored elsewhere in the walk. So the
// runner ends a scope (WorkerSink.NewSegment) at every won fork and every
// resumed local fork unless its fork host is canonical. A lone in-process
// worker without a journal is: it explores in the canonical depth-first
// order itself, so every claim it wins is the canonical first encounter
// and nothing is grafted. Its one task is one scope, which folds exactly
// what a whole-run fold does; assemble checks that such a run indeed
// re-decides no claim.
package symx

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/ulp430"
)

// WorkerSink extends Sink with the task protocol of the parallel engine.
// A worker's sink observes many tasks, one at a time; positions handed to
// the Sink methods stay absolute path positions (cycles since the
// exploration root), so BeginTask tells the sink where on the path the
// task starts and hands it the opaque seed captured from the spawning
// sink by SpawnSeed (the per-path context — in-flight instruction,
// interrupt depth — that a mid-path observer needs).
type WorkerSink interface {
	Sink
	// BeginTask resets per-path state for a new task rooted at absolute
	// path position basePos, identified by task for candidate tagging.
	// It implies NewSegment.
	BeginTask(task, basePos int, seed interface{})
	// EndTask marks the current task complete. It implies NewSegment,
	// flushing the task's last segment.
	EndTask()
	// NewSegment ends the sink's fold scope: the observations since the
	// last scope boundary are in canonical order among themselves, but
	// the ones that follow may not be — the next segment's claim may be
	// grafted elsewhere in the canonical walk — so the sink flushes its
	// order-sensitive folds here. The runner calls it at a won fork and
	// at a resumed local fork unless its fork host is canonical (a lone
	// in-process worker without a journal), whose one task is one scope.
	// A scope may span rewinds: positions jump back while the task's
	// stream index keeps rising, so a sink must tag what it flushes with
	// the stream index of each observation, not derive it from positions.
	NewSegment()
	// SpawnSeed captures the path context just before absolute position
	// pos, to seed a task that will resume there.
	SpawnSeed(pos int) interface{}
	// MarshalTask serializes the observations of the task begun by the
	// last BeginTask (its flushed reduction candidates and per-task
	// activity) for a checkpoint journal's done record or a fleet
	// result. Called after the task's final observation, before EndTask;
	// it flushes the current segment first. The sink's package provides
	// the matching replay (e.g. power.MergeParallelReplay).
	MarshalTask() ([]byte, error)
}

// ParallelOptions configures ExploreParallel.
type ParallelOptions struct {
	Options
	// Workers is the worker-goroutine count (values < 1 mean 1).
	Workers int
	// NewWorker builds one worker's private System (freshly created in
	// SymbolicInputs mode on the shared netlist) and sink. It is called
	// once per worker, possibly concurrently.
	NewWorker func(worker int) (*ulp430.System, WorkerSink, error)
	// Checkpoint, when non-nil, journals the exploration so a killed run
	// resumes from its last synced record instead of restarting (see
	// checkpoint.go). Requires merging (DisableMerge unset). In
	// checkpoint mode every fork is published as a durable task — the
	// worker-local fork stacks are bypassed so the journal alone
	// reconstructs the exploration frontier.
	Checkpoint *Checkpointer
}

// ParallelResult is the assembled exploration plus the observation-order
// index the sink reduction needs.
type ParallelResult struct {
	// Tree is the canonical execution tree, bit-identical to the Explore
	// result.
	Tree *Tree
	// Replayed maps task ID to the serialized sink observations of tasks
	// restored from a checkpoint journal instead of executed this run
	// (nil unless a resume replayed work). The sink's package folds these
	// into its canonical merge (e.g. power.MergeParallelReplay).
	Replayed map[int][]byte

	// index holds every segment that recorded observations, sorted by
	// task then streamStart; built on the first NodeID call.
	index     []*Node
	indexOnce sync.Once
}

// NodeID resolves a task-local observation stream index to the final
// (canonical) ID of the tree node whose segment contains it. Canonical
// observation order — the order a single worker visits observations
// in — is ascending (NodeID, stream index).
func (r *ParallelResult) NodeID(task, stream int) int {
	r.indexOnce.Do(func() {
		r.index = slices.DeleteFunc(slices.Clone(r.Tree.Nodes), func(n *Node) bool { return n.Len == 0 })
		slices.SortFunc(r.index, func(a, b *Node) int {
			return cmp.Or(cmp.Compare(a.task, b.task), cmp.Compare(a.streamStart, b.streamStart))
		})
	})
	// Rightmost segment of task starting at or before stream; zero-length
	// segments are not indexed, so the match is the containing one.
	i := sort.Search(len(r.index), func(i int) bool {
		n := r.index[i]
		return n.task > task || n.task == task && n.streamStart > stream
	}) - 1
	if i < 0 || r.index[i].task != task {
		return -1
	}
	return r.index[i].ID
}

// snapPool is a free list of fork snapshots with a double-free guard:
// returning a snapshot that is already pooled is the classic symptom of a
// fork bookkeeping bug (two owners of one pending fork), and silently
// recycling it would corrupt an unrelated branch's restore state. The
// pool is small (bounded by fork-stack depth), so the linear scan is
// noise next to the snapshot copy itself.
type snapPool []*ulp430.SysSnapshot

func (p *snapPool) take() *ulp430.SysSnapshot {
	if n := len(*p); n > 0 {
		sn := (*p)[n-1]
		*p = (*p)[:n-1]
		sn.MarkTaken()
		return sn
	}
	return &ulp430.SysSnapshot{}
}

func (p *snapPool) put(sn *ulp430.SysSnapshot) {
	for _, q := range *p {
		if q == sn {
			panic("symx: snapshot double-freed to pool")
		}
	}
	// The pooled mark turns any lingering alias into a loud panic on its
	// next Restore/CapturePortableAt instead of a silent state corruption
	// (the pool may hand the snapshot's buffers to an unrelated fork).
	sn.MarkPooled()
	*p = append(*p, sn)
}

// claimTable is the sharded seen-state table. The first encounter of a
// key claims it and explores its children; later encounters merge.
type claimTable struct {
	shards [64]struct {
		mu sync.Mutex
		m  map[ForkKey]*Node
		_  [40]byte // keep shards off one another's cache line
	}
}

func newClaimTable() *claimTable {
	t := &claimTable{}
	for i := range t.shards {
		t.shards[i].m = make(map[ForkKey]*Node)
	}
	return t
}

// claim records n as the owner of key if the key is unclaimed, returning
// whether n won. The claimant pointer is only read again during assembly
// (after all workers join), so the map value never needs updating.
func (t *claimTable) claim(key ForkKey, n *Node) bool {
	s := &t.shards[key.Lo&63]
	s.mu.Lock()
	_, taken := s.m[key]
	if !taken {
		s.m[key] = n
	}
	s.mu.Unlock()
	return !taken
}

func (t *claimTable) owner(key ForkKey) *Node {
	s := &t.shards[key.Lo&63]
	s.mu.Lock()
	n := s.m[key]
	s.mu.Unlock()
	return n
}

// ptask is one unit of stealable work: explore the subtree rooted at the
// still-unexplored taken direction of a fork (or the whole tree, for the
// root task).
type ptask struct {
	id      int
	state   *ulp430.PortableState // nil for the root task (Reset instead)
	forces  ForkForces
	branch  *Node // fork node whose Taken child this task creates
	basePos int
	seed    interface{}
}

// pendingFork is a won fork's taken direction kept on a worker's local
// stack: the pooled snapshot of the pre-branch state, the sink position
// to rewind to, and the forces to re-step the cycle under.
type pendingFork struct {
	snap    *ulp430.SysSnapshot // state before the forked cycle
	sinkPos int
	branch  *Node
	forces  ForkForces // full force set for the direction still to explore
}

// tally is what one exploration charges its budgets to. In-process every
// worker shares the scheduler's tally, so the atomics count the whole
// run; a fleet task gets a private tally preloaded with the
// coordinator's committed totals, so its guards see committed work plus
// its own.
type tally struct {
	cycles  atomic.Int64 // simulated cycles
	nodes   atomic.Int64 // tree nodes created
	paths   atomic.Int64 // terminals reached
	stopped atomic.Bool  // a peer failed the run

	progMu       sync.Mutex
	nextProgress atomic.Int64
}

func (t *tally) progress() Progress {
	return Progress{Cycles: int(t.cycles.Load()), Nodes: int(t.nodes.Load()), Paths: int(t.paths.Load())}
}

// sched is the in-process scheduler: a queue of published tasks plus the
// bookkeeping that detects termination (no queued work and no task being
// executed) and propagates the first error.
type sched struct {
	tally

	mu      sync.Mutex
	cond    *sync.Cond
	queue   []*ptask
	active  int
	nextID  int
	done    bool
	err     error
	queued  atomic.Int64 // len(queue) mirror, read lock-free by workers
	waiting atomic.Int64 // workers blocked in take()
}

// reserveID allocates a task ID. IDs are reserved before publication so a
// checkpoint journal can record the task under its final identity before
// any worker can steal it.
func (s *sched) reserveID() int {
	s.mu.Lock()
	id := s.nextID
	s.nextID++
	s.mu.Unlock()
	return id
}

func (s *sched) publish(t *ptask) {
	s.mu.Lock()
	s.queue = append(s.queue, t)
	s.queued.Store(int64(len(s.queue)))
	s.mu.Unlock()
	s.cond.Signal()
}

// take blocks until a task is available, all work is finished, or an
// error stops the run. Stolen tasks come from the queue front: the
// longest-queued fork roots the largest remaining subtree.
func (s *sched) take() *ptask {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.done || s.err != nil {
			return nil
		}
		if len(s.queue) > 0 {
			t := s.queue[0]
			s.queue = s.queue[1:]
			s.queued.Store(int64(len(s.queue)))
			s.active++
			return t
		}
		if s.active == 0 {
			s.done = true
			s.cond.Broadcast()
			return nil
		}
		s.waiting.Add(1)
		s.cond.Wait()
		s.waiting.Add(-1)
	}
}

func (s *sched) finish() {
	s.mu.Lock()
	s.active--
	if s.active == 0 && len(s.queue) == 0 {
		s.done = true
		s.cond.Broadcast()
	}
	s.mu.Unlock()
}

func (s *sched) fail(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.done = true
	s.stopped.Store(true)
	s.cond.Broadcast()
	s.mu.Unlock()
}

// hungry reports whether publishing (rather than keeping a fork local)
// would feed an underfed queue: fewer queued tasks than workers, or
// workers already blocked waiting.
func (s *sched) hungry(workers int) bool {
	return s.queued.Load() < int64(workers) || s.waiting.Load() > 0
}

// forkHost is what the runner delegates to the process it runs in. Its
// two methods cover who owns a fork key and where a won fork's taken
// direction goes; the third difference, which budget the work is charged
// to, is the worker's tally.
type forkHost interface {
	// fork settles a fork point whose pre-branch state has merge key
	// key. It reports whether this encounter owns the subtree, and if so
	// sends the taken direction pf on: to the worker's local stack, to
	// the in-process queue (journaled in checkpoint mode), or to the
	// coordinator inside the claim RPC. The system sits at pf's
	// pre-branch state (rewound to the cycle's mark).
	fork(w *worker, key ForkKey, pf pendingFork) (won bool, err error)
	// donate is offered the worker's local forks after every resolved
	// cycle while it holds any.
	donate(w *worker) error
	// canonical reports whether the worker explores in canonical order
	// and every claim it wins is final, so that its sink's fold scope may
	// span the whole task (see the file comment).
	canonical() bool
}

// worker is one Algorithm-1 runner: a private System and sink, the fork
// host it reports to, and the tally it charges. It explores one task at
// a time with runTask.
type worker struct {
	sys   *ulp430.System
	sink  WorkerSink
	opts  Options
	host  forkHost
	tally *tally

	pool  snapPool
	local []pendingFork // LIFO of won forks whose taken direction waits here

	nodes      []*Node // every segment this worker created, in creation order
	task       *ptask
	taskFirst  int   // index in nodes of the current task's first segment
	taskKids   []int // IDs of tasks the current task published, in branch order
	taskCycles int   // cycles simulated by the current task
	stream     int   // observations made by the current task
	ownCycles  int   // cycles simulated by this worker (cancel pacing)
	nextCancel int
}

func newWorker(sys *ulp430.System, sink WorkerSink, opts Options, host forkHost, tl *tally) *worker {
	return &worker{sys: sys, sink: sink, opts: opts, host: host, tally: tl, nextCancel: cancelCheckEvery}
}

func (w *worker) newNode() *Node {
	n := &Node{task: w.task.id, streamStart: w.stream, seq: len(w.nodes) - w.taskFirst}
	w.nodes = append(w.nodes, n)
	w.tally.nodes.Add(1)
	return n
}

// spawn captures the taken direction of pf as a self-contained task. at
// is pf's pre-branch state, which must still be LIFO-reachable on w.sys;
// nil means the live state.
func (w *worker) spawn(pf pendingFork, at *ulp430.SysSnapshot) *ptask {
	st := &ulp430.PortableState{}
	if at == nil {
		w.sys.CapturePortable(st)
	} else {
		w.sys.CapturePortableAt(at, st)
	}
	return &ptask{state: st, forces: pf.forces, branch: pf.branch, basePos: pf.sinkPos, seed: w.sink.SpawnSeed(pf.sinkPos)}
}

// runTask is Algorithm 1, the only copy of it: explore task t's subtree
// depth-first, not-taken direction first. At each cycle whose control
// condition is X it rewinds, ends the segment at a fork, and asks the
// host whether this encounter owns the fork key; the owner continues down
// the not-taken direction, every other encounter ends as a merge. Forks
// kept on the local stack resume in LIFO order once a terminal is
// reached; the task is done when the stack is empty.
//
// Budgets are exact: exploration fails if and only if the tally exceeds
// a cap, detected the moment a counter crosses it. Claim-first ownership
// makes the totals equal at any worker count, so every entry point
// reaches the same success-or-failure decision with the same text.
func (w *worker) runTask(t *ptask) error {
	w.task = t
	w.stream = 0
	w.taskCycles = 0
	w.taskFirst = len(w.nodes)
	w.taskKids = w.taskKids[:0]
	if t.state != nil {
		if err := w.sys.RestorePortable(t.state); err != nil {
			return fmt.Errorf("symx: task %d: %w", t.id, err)
		}
	} else {
		w.sys.Reset()
	}
	w.sink.BeginTask(t.id, t.basePos, t.seed)

	cur := w.newNode()
	if t.branch != nil {
		t.branch.Taken = cur
	}
	segStart := t.basePos
	// pending is the force set for the cycle about to be (re-)stepped:
	// the task's or popped fork's accumulated directions, empty once a
	// cycle resolves.
	pending := t.forces

	sys, sink, tl, opts := w.sys, w.sink, w.tally, w.opts
	segmented := !w.host.canonical()

	finishSegment := func(kind NodeKind) {
		cur.Kind = kind
		cur.Len = sink.Pos() - segStart
		cur.Data = sink.Segment(segStart)
	}
	// applyForces stages every accumulated override before a re-step.
	// They must all be re-applied each time — Restore resets the force
	// nets and the one-shot IRQ override alike.
	applyForces := func() {
		if pending.BrEn {
			sys.ForceBranch(pending.BrVal)
		}
		if pending.IrqEn {
			sys.ForceIRQ(pending.IrqVal)
		}
	}
	// pop resumes the newest local fork's taken direction, or returns
	// false. The outer loop re-marks and re-steps the forked cycle under
	// the restored force set.
	pop := func() bool {
		n := len(w.local)
		if n == 0 {
			return false
		}
		pf := w.local[n-1]
		w.local = w.local[:n-1]
		sys.Restore(pf.snap)
		w.pool.put(pf.snap)
		sink.Rewind(pf.sinkPos)
		if segmented {
			sink.NewSegment()
		}
		cur = w.newNode()
		pf.branch.Taken = cur
		segStart = pf.sinkPos
		pending = pf.forces
		return true
	}

outer:
	for {
		if tl.stopped.Load() {
			// Another worker failed; it holds the error. The current task is
			// abandoned mid-segment — the sentinel keeps it out of the
			// checkpoint journal (it must not be recorded as done).
			return errWorkerStopped
		}
		if err := sys.Err(); err != nil {
			return err
		}
		if opts.Ctx != nil && w.ownCycles >= w.nextCancel {
			w.nextCancel = w.ownCycles + cancelCheckEvery
			if err := opts.Ctx.Err(); err != nil {
				return fmt.Errorf("symx: exploration aborted after %d cycles (%d paths): %w",
					tl.cycles.Load(), tl.paths.Load(), err)
			}
		}
		if opts.Progress != nil {
			if c := tl.cycles.Load(); c >= tl.nextProgress.Load() {
				if tl.nextProgress.CompareAndSwap(tl.nextProgress.Load(), c+int64(opts.ProgressEvery)) {
					tl.progMu.Lock()
					opts.Progress(Progress{Cycles: int(c), Nodes: int(tl.nodes.Load()), Paths: int(tl.paths.Load())})
					tl.progMu.Unlock()
				}
			}
		}
		if sys.Halted() {
			finishSegment(KindEnd)
			tl.paths.Add(1)
			if !pop() {
				return nil
			}
			continue
		}
		// The cycle counter is also checked inside the resolve loop, where
		// fork re-steps accumulate between visits here.
		if tl.cycles.Load() > int64(opts.MaxCycles) {
			return cycleBudgetErr(opts.MaxCycles)
		}
		if tl.nodes.Load() > int64(opts.MaxNodes) {
			return nodeBudgetErr(opts.MaxNodes)
		}

		// The cycle's rewind point: the latch keeps the planes, the
		// journal the memory, so marking copies no state.
		sys.Mark()
		markPos := sink.Pos()

		// Resolve loop: re-step the cycle until every control condition is
		// concrete. Jump conditions resolve before interrupt arrival, so a
		// double-forked cycle always forks in the same order — the tree
		// shape (and the sealed report derived from it) is deterministic.
		for {
			applyForces()
			sys.Step()
			sys.ClearForce()
			if tl.cycles.Add(1) > int64(opts.MaxCycles) {
				return cycleBudgetErr(opts.MaxCycles)
			}
			w.ownCycles++
			w.taskCycles++

			isIRQ := false
			if sys.JumpCondUnknown() {
				// The cycle just simulated is the EXEC of an
				// input-dependent jump.
			} else if sys.IRQCondUnknown() {
				isIRQ = true
			} else {
				break // fully resolved
			}

			// Rewind the cycle; this segment terminates at a fork.
			if err := sys.Rewind(); err != nil {
				return err
			}
			pc, _ := sys.PC()
			cur.key = stateKey(sys, pending)
			cur.BranchPC = pc
			cur.IRQ = isIRQ
			finishSegment(KindBranch)
			won, err := w.host.fork(w, cur.key, pendingFork{
				sinkPos: markPos, branch: cur, forces: pending.with(isIRQ, true),
			})
			if err != nil {
				return err
			}
			if !won {
				// Someone owns this subtree. Provisionally a merge;
				// assembly decides the canonical winner.
				cur.Kind = KindMerge
				tl.paths.Add(1)
				if !pop() {
					return nil
				}
				continue outer
			}
			// Continue depth-first down the not-taken / not-arrived
			// direction: re-step this same cycle with the extended forces.
			if segmented {
				sink.NewSegment()
			}
			child := w.newNode()
			cur.NotTaken = child
			cur = child
			segStart = markPos
			pending = pending.with(isIRQ, false)
		}

		sink.OnCycle(sys)
		w.stream++
		pending = ForkForces{}

		// A fully unknown PC that is not a forkable jump condition means
		// an input-dependent computed branch target — out of scope for
		// the fork rule, and an analysis error rather than silence.
		if _, known := sys.PC(); !known {
			return fmt.Errorf("symx: PC became X at cycle %d — input-dependent branch target (computed jump/call on input data) is not supported", sys.Sim.Cycle())
		}
		if len(w.local) > 0 {
			if err := w.host.donate(w); err != nil {
				return err
			}
		}
	}
}

// result encodes the task runTask just finished — its segment chain
// (payloads through codec), published children, cycle count and the
// sink's per-task observations — as the done record a checkpoint journal
// stores and a fleet worker sends back.
func (w *worker) result(codec CheckpointCodec) (*RemoteResult, error) {
	blob, err := w.sink.MarshalTask()
	if err != nil {
		return nil, fmt.Errorf("symx: checkpoint sink marshal: %w", err)
	}
	chain := w.nodes[w.taskFirst:]
	res := &RemoteResult{
		Cycles: w.taskCycles,
		Nodes:  make([]RemoteNode, len(chain)),
		Kids:   append([]int(nil), w.taskKids...),
		Sink:   blob,
	}
	for i, n := range chain {
		payload, err := codec.MarshalPayload(n.Data)
		if err != nil {
			return nil, fmt.Errorf("symx: checkpoint payload marshal: %w", err)
		}
		res.Nodes[i] = RemoteNode{
			Len: n.Len, Kind: int(n.Kind), IRQ: n.IRQ, PC: n.BranchPC,
			Key: n.key.Lo, Key2: n.key.Hi,
			StreamStart: n.streamStart, Payload: payload,
		}
	}
	return res, nil
}

// errWorkerStopped marks a task abandoned because a peer already failed
// the run: not an error of its own, but not a completed task either.
var errWorkerStopped = errors.New("symx: internal: worker stopped")

// localHost is the in-process fork host: fork keys are claimed in the
// shared claim table, and a won fork's taken direction stays on the
// worker's local stack unless the queue is starving or the run is
// checkpointed, in which case it is published as a task.
type localHost struct {
	sc      *sched
	seen    *claimTable
	ck      *Checkpointer
	workers int
	merge   bool
}

func (h *localHost) fork(w *worker, key ForkKey, pf pendingFork) (bool, error) {
	if h.merge && !h.seen.claim(key, pf.branch) {
		return false, nil
	}
	if h.ck != nil || h.starving() {
		// The system sits exactly at the rewound fork state, so the
		// portable capture is of the live state (no journal suffix).
		// Checkpoint mode always publishes: only published tasks reach
		// the journal, so a worker-local fork would be invisible to a
		// resume.
		return true, h.publishKid(w, w.spawn(pf, nil))
	}
	pf.snap = w.pool.take()
	w.sys.SnapshotInto(pf.snap)
	w.local = append(w.local, pf)
	return true, nil
}

// donate publishes the oldest local fork — the biggest pending subtree —
// when peers are starving.
func (h *localHost) donate(w *worker) error {
	if !h.starving() {
		return nil
	}
	pf := w.local[0]
	w.local = w.local[1:]
	t := w.spawn(pf, pf.snap)
	w.pool.put(pf.snap)
	return h.publishKid(w, t)
}

// canonical holds for a lone worker without a journal: it never
// publishes, so it explores the whole tree depth-first in one task.
func (h *localHost) canonical() bool { return h.workers == 1 && h.ck == nil }

// starving reports whether a published fork would feed an idle peer.
// A lone worker has no peers, so it never publishes outside checkpoint
// mode.
func (h *localHost) starving() bool {
	return h.workers > 1 && h.sc.hungry(h.workers)
}

// publishKid publishes t as a child of the worker's current task.
func (h *localHost) publishKid(w *worker, t *ptask) error {
	if err := h.publish(t, t.branch.task, t.branch.seq); err != nil {
		return err
	}
	w.taskKids = append(w.taskKids, t.id)
	return nil
}

// publish reserves an identity for t, journals it if checkpointing, and
// hands it to the scheduler — in that order, so the journal's pub record
// always precedes any record a stealer could write.
func (h *localHost) publish(t *ptask, parent, seq int) error {
	t.id = h.sc.reserveID()
	if h.ck != nil {
		rt, err := encodeTask(t, h.ck.cfg.Codec)
		if err != nil {
			return err
		}
		h.ck.writePub(rt, parent, seq)
	}
	h.sc.publish(t)
	return nil
}

// run feeds w queued tasks until the run finishes or fails, journaling
// each finished task in checkpoint mode.
func (h *localHost) run(w *worker) {
	for {
		t := h.sc.take()
		if t == nil {
			return
		}
		err := w.runTask(t)
		if err == nil && h.ck != nil {
			var res *RemoteResult
			if res, err = w.result(h.ck.cfg.Codec); err == nil {
				h.ck.writeDone(t.id, res)
			}
		}
		w.sink.EndTask()
		if err == errWorkerStopped {
			h.sc.finish()
			return
		}
		if err != nil {
			h.sc.fail(err)
			return
		}
		h.sc.finish()
	}
}

// ExploreParallel runs Algorithm 1 across opts.Workers workers and
// assembles a tree bit-identical at every worker count (same node IDs,
// kinds, merge targets, payloads, Paths, and Cycles — asserted against
// the reference explorer of the tests by the determinism suite and
// FuzzExplore). Budget, bus, and cancellation errors carry the same text
// and wrap the same sentinels at every worker count.
func ExploreParallel(opts ParallelOptions) (*ParallelResult, error) {
	opts.Options = opts.Options.withDefaults()
	if opts.Workers < 1 {
		opts.Workers = 1
	}
	ck := opts.Checkpoint
	if ck != nil && opts.DisableMerge {
		return nil, fmt.Errorf("symx: checkpointing requires state merging (DisableMerge must be unset)")
	}

	sc := &sched{}
	sc.cond = sync.NewCond(&sc.mu)
	sc.nextProgress.Store(int64(opts.ProgressEvery))
	h := &localHost{sc: sc, seen: newClaimTable(), ck: ck, workers: opts.Workers, merge: !opts.DisableMerge}

	var rs *resumeState
	if ck != nil {
		var err error
		rs, err = ck.open()
		if err != nil {
			return nil, err
		}
		defer ck.close()
		// Seed the run with the journal's live history: counters resume at
		// the replayed totals (keeping the shared budgets exact), and the
		// replayed branch nodes pre-claim their fork keys so re-executed
		// work merges into replayed subtrees instead of re-exploring them.
		sc.nextID = rs.nextID
		sc.cycles.Store(rs.cycles)
		sc.nodes.Store(int64(len(rs.nodes)))
		sc.paths.Store(rs.paths)
		for key, n := range rs.claims {
			h.seen.claim(key, n)
		}
	}

	if opts.Progress != nil {
		defer func() { opts.Progress(sc.progress()) }()
	}

	if rs != nil && rs.rootPub {
		// Resumed run: the journal owns every live task identity. Pending
		// live tasks re-enter the queue under their recorded IDs.
		for _, t := range rs.pending {
			sc.publish(t)
		}
	} else if err := h.publish(&ptask{}, -1, 0); err != nil { // the root task: explore from reset
		return nil, err
	}

	// Worker 0 runs on the calling goroutine, so a one-worker run (Explore)
	// starts no goroutine.
	nodeLists := make([][]*Node, opts.Workers)
	runWorker := func(i int) {
		sys, sink, err := opts.NewWorker(i)
		if err != nil {
			sc.fail(fmt.Errorf("symx: worker %d: %w", i, err))
			return
		}
		w := newWorker(sys, sink, opts.Options, h, &sc.tally)
		h.run(w)
		nodeLists[i] = w.nodes
	}
	var wg sync.WaitGroup
	for i := 1; i < opts.Workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			runWorker(i)
		}(i)
	}
	runWorker(0)
	wg.Wait()

	sc.mu.Lock()
	err := sc.err
	sc.mu.Unlock()
	if err != nil {
		return nil, err
	}

	lists := nodeLists
	if rs != nil {
		lists = append([][]*Node{rs.nodes}, nodeLists...)
	}
	tree, err := assemble(lists, h.seen, h.merge, h.canonical())
	if err != nil {
		return nil, err
	}
	res := &ParallelResult{Tree: tree}
	if rs != nil && len(rs.replayed) > 0 {
		res.Replayed = rs.replayed
	}
	return res, nil
}

// assemble canonicalizes the provisional fork graph: a fresh walk in
// depth-first order (not-taken first, LIFO resumption) decides
// branch-versus-merge per key with a fresh seen-map, reassigns
// creation-order IDs, and recomputes Paths and Cycles. lists holds every
// explored segment; each list is in creation order. Every simulated
// segment appears exactly once, so the walk must reach them all —
// checked, since a miss means the claim discipline was violated. A
// canonical run's claims must come out of the walk unchanged — checked,
// since its sinks folded across forks on that premise.
func assemble(lists [][]*Node, seen *claimTable, merge, canonical bool) (*Tree, error) {
	// The root is task 0's first-created node: task IDs are assigned at
	// publish time and the root task is published first.
	var root *Node
	total := 0
	for _, l := range lists {
		for _, n := range l {
			if root == nil && n.task == 0 {
				root = n
			}
		}
		total += len(l)
	}
	if root == nil {
		return nil, fmt.Errorf("symx: internal: root task produced no nodes")
	}

	tree := &Tree{Root: root, Nodes: make([]*Node, 0, total)}
	canon := make(map[ForkKey]*Node)
	var stack []*Node
	cur := root
	for {
		cur.ID = len(tree.Nodes)
		tree.Nodes = append(tree.Nodes, cur)
		tree.Cycles += cur.Len
		isFork := cur.Kind == KindBranch || cur.Kind == KindMerge
		if isFork {
			tree.Cycles++ // the rewound fork-detection step
			winner, dup := canon[cur.key]
			dup = dup && merge
			// A canonical run's claim winners are its keys' first
			// encounters: a branch must stay one and a merge must stay
			// a merge.
			if canonical && dup == (cur.Kind == KindBranch) {
				return nil, fmt.Errorf("symx: internal: canonical exploration re-decided fork key %#x:%#x", cur.key.Lo, cur.key.Hi)
			}
			if dup {
				cur.Kind = KindMerge
				cur.MergeTo = winner
				cur.NotTaken, cur.Taken = nil, nil
				tree.Paths++
			} else {
				owner := cur
				if merge {
					canon[cur.key] = cur
					owner = seen.owner(cur.key)
				}
				cur.Kind = KindBranch
				cur.MergeTo = nil
				if owner != cur {
					cur.NotTaken, cur.Taken = owner.NotTaken, owner.Taken
				}
				if cur.NotTaken == nil || cur.Taken == nil {
					return nil, fmt.Errorf("symx: internal: fork key %#x:%#x has unexplored children", cur.key.Lo, cur.key.Hi)
				}
				stack = append(stack, cur)
				cur = cur.NotTaken
				continue
			}
		} else {
			tree.Paths++ // KindEnd
		}
		if len(stack) == 0 {
			break
		}
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		cur = b.Taken
	}

	if len(tree.Nodes) != total {
		return nil, fmt.Errorf("symx: internal: canonical walk reached %d of %d explored segments", len(tree.Nodes), total)
	}
	return tree, nil
}
