// Cross-process work distribution for checkpointed parallel exploration.
//
// The checkpoint journal (checkpoint.go) already makes one exploration a
// stream of portable task records: in checkpoint mode every fork is
// published, so a task is exactly one linear segment chain from a
// ulp430.PortableState to one terminal, identified before any work
// happens. This file exposes that task stream over a process boundary:
//
//   - RemoteTask / RemoteResult (checkpoint.go) are the task records the
//     journal's pub and done records are made of (state bytes from
//     EncodePortable, memory as a sparse diff against the loaded image;
//     seeds and payloads pre-marshaled through the run's
//     CheckpointCodec).
//   - RunRemoteTask executes one task on a remote worker's private System
//     and WorkerSink with the same runner as the in-process workers
//     (worker.runTask), under a remote fork host: fork claims go through a
//     RemoteClaimer RPC instead of the in-process claim table, and the
//     taken direction of a won fork travels to the coordinator inside the
//     claim call.
//   - RemoteQueue is the coordinator side: it owns the journal (through
//     the ordinary Checkpointer), leases pending tasks out, registers
//     claims idempotently, and accepts first-wins completions. When every
//     live task is done the journal is a COMPLETE exploration, and the
//     ordinary resume path (ExploreParallel on the same journal) replays
//     it without executing anything — assembling the canonical tree and
//     candidate streams exactly as if the run had been local.
//
// Fault tolerance falls out of the claim discipline. A task re-issued
// after a lease expiry re-executes deterministically, so its claims
// arrive with the same (key, parent, seq) coordinates and are answered
// with the same child identities — a zombie first incarnation and its
// replacement produce interchangeable results, and the first completion
// wins. Claims from a task the current coordinator life never leased are
// rejected with ErrStaleTask: accepting them could let an unreachable
// subtree shadow a live claim key, wedging the final assembly.
package symx

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/ulp430"
)

// ErrStaleTask rejects a fleet RPC referring to a task the current
// coordinator life does not consider leased — a zombie worker holding
// work from before a coordinator restart. The worker must abandon the
// task; its live incarnation is re-issued from the journal.
var ErrStaleTask = errors.New("symx: stale fleet task")

// RemoteClaim answers a fork-point claim: whether the claiming task owns
// the subtree (and must keep exploring its not-taken direction), and the
// identity assigned to the published taken-direction child when it does.
type RemoteClaim struct {
	Won     bool `json:"won"`
	ChildID int  `json:"child_id,omitempty"`
}

// RemoteClaimer is the worker's view of the coordinator's claim table:
// claim fork key on behalf of task parent's seq-th chain segment,
// shipping the taken-direction child task for publication if the claim
// wins. Implementations must be idempotent on (parent, seq) — a
// re-executed task incarnation reaches identical forks and must receive
// identical child identities.
type RemoteClaimer interface {
	Claim(key ForkKey, parent, seq int, child RemoteTask) (RemoteClaim, error)
}

// RunRemoteTask executes one leased task to its terminal: decode its
// start state and seed, run one segment chain, encode the result. In a
// fleet every fork is either claimed — the chain continues down the
// not-taken direction, the taken direction published via the claimer —
// or merged, ending the task. baseCycles/baseNodes are the coordinator's
// committed totals at lease time; the task's tally starts from them, which
// makes the budget guards conservative (a trip implies the true total
// exceeds the cap — the coordinator's completion-time check is
// authoritative).
func RunRemoteTask(sys *ulp430.System, sink WorkerSink, opts Options, codec CheckpointCodec, t RemoteTask, claimer RemoteClaimer, baseCycles, baseNodes int64) (*RemoteResult, error) {
	pt, err := decodeTask(t, codec)
	if err != nil {
		return nil, fmt.Errorf("symx: remote %w", err)
	}
	tl := &tally{}
	tl.cycles.Store(baseCycles)
	tl.nodes.Store(baseNodes)
	w := newWorker(sys, sink, opts.withDefaults(), remoteHost{claimer, codec}, tl)
	defer sink.EndTask()
	if err := w.runTask(pt); err != nil {
		return nil, err
	}
	return w.result(codec)
}

// remoteHost is the fleet worker's fork host: the coordinator owns every
// fork key, and a won fork's taken direction is journaled by the
// coordinator before the claim is answered.
type remoteHost struct {
	claimer RemoteClaimer
	codec   CheckpointCodec
}

func (h remoteHost) fork(w *worker, key ForkKey, pf pendingFork) (bool, error) {
	// The taken direction travels inside the claim: if the claim wins,
	// the coordinator assigns it an identity and journals it before
	// answering, so the fork is durable before either direction is
	// explored (the pub-before-done invariant).
	child, err := encodeTask(w.spawn(pf, nil), h.codec)
	if err != nil {
		return false, err
	}
	cl, err := h.claimer.Claim(key, w.task.id, pf.branch.seq, child)
	if err != nil || !cl.Won {
		return false, err
	}
	w.taskKids = append(w.taskKids, cl.ChildID)
	return true, nil
}

// donate is never reached: a fleet task keeps no local forks.
func (remoteHost) donate(*worker) error { return nil }

// canonical is false: a fleet task's claims may be grafted.
func (remoteHost) canonical() bool { return false }

type remoteClaimRec struct {
	parent, seq, child int
}

// RemoteQueue is the coordinator's task scheduler for one fleet-executed
// exploration: it owns the checkpoint journal, leases pending tasks to
// workers, answers claims (registering and journaling new tasks), and
// accepts first-wins completions. Opening a queue on a journal left by a
// crashed coordinator resumes it: live pending tasks re-enter the queue
// under their recorded identities and the claim table is rebuilt from
// the live done records, exactly as ExploreParallel's own resume would.
type RemoteQueue struct {
	mu   sync.Mutex
	ck   *Checkpointer
	opts Options

	queue  []int // pending task IDs, FIFO
	tasks  map[int]RemoteTask
	queued map[int]bool
	leased map[int]bool // leased at least once THIS coordinator life
	done   map[int]bool
	claims map[ForkKey]*remoteClaimRec

	live   int // published live tasks not yet completed
	cycles int64
	nodes  int64
	nextID int
	err    error
}

// OpenRemoteQueue opens (or resumes) the journal at cfg.Path and returns
// the coordinator-side scheduler for it. opts must be the exploration
// options the final local seal will run under (the budgets are enforced
// against them). Close the queue before sealing: the seal re-opens the
// journal through the ordinary checkpoint resume path.
func OpenRemoteQueue(cfg CheckpointConfig, opts Options) (*RemoteQueue, error) {
	opts = opts.withDefaults()
	ck := NewCheckpointer(cfg)
	rs, err := ck.open()
	if err != nil {
		return nil, err
	}
	q := &RemoteQueue{
		ck:     ck,
		opts:   opts,
		tasks:  map[int]RemoteTask{},
		queued: map[int]bool{},
		leased: map[int]bool{},
		done:   map[int]bool{},
		claims: map[ForkKey]*remoteClaimRec{},
		cycles: rs.cycles,
		nodes:  int64(len(rs.nodes)),
		nextID: rs.nextID,
	}

	// Rebuild the claim table from the live done chains. The child task of
	// a claim is the one grafted onto the branch node: a done child is
	// reachable through Taken; a pending child is matched through its
	// ptask's branch pointer below.
	byBranch := map[*Node]*remoteClaimRec{}
	for key, n := range rs.claims {
		rec := &remoteClaimRec{parent: n.task, seq: n.seq, child: -1}
		if n.Taken != nil {
			rec.child = n.Taken.task
		}
		q.claims[key] = rec
		byBranch[n] = rec
	}

	for _, t := range rs.pending {
		wt, err := encodeTask(t, cfg.Codec)
		if err != nil {
			ck.close()
			return nil, err
		}
		q.enqueue(wt)
		if t.branch != nil {
			if rec := byBranch[t.branch]; rec != nil {
				rec.child = t.id
			}
		}
	}
	for key, rec := range q.claims {
		if rec.child < 0 {
			ck.close()
			return nil, fmt.Errorf("symx: checkpoint journal %s: fork key %#x:%#x has no live child task", cfg.Path, key.Lo, key.Hi)
		}
	}

	if !rs.rootPub {
		// Encoded exactly like the in-process root, so a fleet-started
		// journal is indistinguishable from a locally started one.
		root, err := encodeTask(&ptask{id: q.nextID}, cfg.Codec)
		if err != nil {
			ck.close()
			return nil, err
		}
		q.nextID++
		ck.writePub(root, -1, 0)
		q.enqueue(root)
	}
	if werr := ck.Err(); werr != nil {
		ck.close()
		return nil, fmt.Errorf("symx: checkpoint journal write: %w", werr)
	}
	return q, nil
}

// enqueue registers a task as live and pending (push back). Caller holds
// no lock during Open; Lease/Claim callers hold q.mu.
func (q *RemoteQueue) enqueue(t RemoteTask) {
	q.tasks[t.ID] = t
	q.queue = append(q.queue, t.ID)
	q.queued[t.ID] = true
	q.live++
}

// Lease hands out the oldest pending task with the committed budget
// totals at lease time. ok is false when nothing is pending (the job may
// still have outstanding leases — check Done).
func (q *RemoteQueue) Lease() (t RemoteTask, baseCycles, baseNodes int64, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.err != nil || len(q.queue) == 0 {
		return RemoteTask{}, 0, 0, false
	}
	id := q.queue[0]
	q.queue = q.queue[1:]
	q.queued[id] = false
	q.leased[id] = true
	return q.tasks[id], q.cycles, q.nodes, true
}

// Requeue returns an expired lease's task to the queue front so it is
// re-issued before newer work. Completed or already-queued tasks are
// left alone (the zombie may still win the completion race).
func (q *RemoteQueue) Requeue(id int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.err != nil || q.done[id] || q.queued[id] || !q.leased[id] {
		return
	}
	q.queue = append([]int{id}, q.queue...)
	q.queued[id] = true
}

// Claim implements the coordinator side of RemoteClaimer. It is
// idempotent on (parent, seq): a re-executed task incarnation receives
// the identities its predecessor was assigned. A fresh winning claim
// journals and enqueues the child before answering.
func (q *RemoteQueue) Claim(key ForkKey, parent, seq int, child RemoteTask) (RemoteClaim, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.err != nil {
		return RemoteClaim{}, q.err
	}
	if !q.leased[parent] {
		return RemoteClaim{}, ErrStaleTask
	}
	if rec, ok := q.claims[key]; ok {
		if rec.parent == parent && rec.seq == seq {
			return RemoteClaim{Won: true, ChildID: rec.child}, nil
		}
		return RemoteClaim{}, nil
	}
	child.ID = q.nextID
	q.nextID++
	q.ck.writePub(child, parent, seq)
	if werr := q.ck.Err(); werr != nil {
		// The journal is the fleet's only result substrate; a write
		// failure must fail the job rather than silently drop a task.
		q.failLocked(fmt.Errorf("symx: checkpoint journal write: %w", werr))
		return RemoteClaim{}, q.err
	}
	q.claims[key] = &remoteClaimRec{parent: parent, seq: seq, child: child.ID}
	q.enqueue(child)
	return RemoteClaim{Won: true, ChildID: child.ID}, nil
}

// Complete records a task's result, first completion wins. Completions
// for tasks this coordinator life never leased are rejected with
// ErrStaleTask (their claims were never registered, so their kids would
// be unreachable); duplicates are ignored with accepted=false. The
// authoritative budget check happens here, BEFORE the done record is
// written — an over-budget journal must never look complete.
func (q *RemoteQueue) Complete(id int, res *RemoteResult) (accepted bool, err error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.err != nil {
		return false, q.err
	}
	if !q.leased[id] {
		return false, ErrStaleTask
	}
	if q.done[id] {
		return false, nil
	}
	if q.cycles+int64(res.Cycles) > int64(q.opts.MaxCycles) {
		q.failLocked(cycleBudgetErr(q.opts.MaxCycles))
		return false, q.err
	}
	if q.nodes+int64(len(res.Nodes)) > int64(q.opts.MaxNodes) {
		q.failLocked(nodeBudgetErr(q.opts.MaxNodes))
		return false, q.err
	}
	q.ck.writeDone(id, res)
	if werr := q.ck.Err(); werr != nil {
		q.failLocked(fmt.Errorf("symx: checkpoint journal write: %w", werr))
		return false, q.err
	}
	q.done[id] = true
	q.queued[id] = false
	q.cycles += int64(res.Cycles)
	q.nodes += int64(len(res.Nodes))
	q.live--
	return true, nil
}

// Fail latches the first job-level error; subsequent leases and claims
// are refused with it.
func (q *RemoteQueue) Fail(err error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.failLocked(err)
}

func (q *RemoteQueue) failLocked(err error) {
	if q.err == nil && err != nil {
		q.err = err
	}
}

// Err returns the latched job-level error, if any.
func (q *RemoteQueue) Err() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.err
}

// Done reports whether every live task has completed (and no error is
// latched): the journal is a complete exploration, ready to seal.
func (q *RemoteQueue) Done() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.err == nil && q.live == 0
}

// Stats reports the queue's scheduling state: tasks pending in the
// queue, tasks leased out and not yet completed, and tasks completed.
func (q *RemoteQueue) Stats() (pending, outstanding, completed int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	pending = len(q.queue)
	completed = len(q.done)
	outstanding = q.live - pending
	return pending, outstanding, completed
}

// Close syncs and closes the journal. The queue must not be used after.
func (q *RemoteQueue) Close() {
	q.ck.close()
}
