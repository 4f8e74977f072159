// Deterministic reduction for symbolic exploration.
//
// A Sink follows its worker through symx's task protocol (BeginTask,
// NewSegment, EndTask, MarshalTask). The per-cycle quantities whose
// reduction is order-insensitive fold locally: the activity union is a
// set union, ISRPeakMW a plain maximum, and the power trace itself is
// stored per segment on the tree. The one order-SENSITIVE reduction is
// the COI list, TopK, whose head is the run's peak: an insertion process
// whose displacement decisions depend on arrival order, and whose head
// is the first cycle attaining the maximum, with its attribution
// metadata. It cannot be folded across tasks live without making the
// Report depend on worker interleaving. Instead the sink runs the one
// fold (Sink.observe) over one scope at a time. The explorer ends a scope
// (NewSegment, and every task boundary); the sink then flushes the
// scope's list as candidates tagged with their (task, stream)
// coordinates, and MergeParallelReplay replays all candidates in
// canonical order — ascending (final tree-node ID, within-task stream
// index), the order the canonical depth-first walk visits observations
// in — through the very same insertion code, reproducing the canonical
// list bit for bit.
//
// The per-scope fold is lossless when a scope's observations are in
// canonical order among themselves, which is the explorer's to ensure: it
// ends a scope wherever a claim can be grafted, i.e. where the subtree a
// worker explores next may be re-anchored elsewhere in the canonical walk.
// A lone in-process worker without a journal explores in canonical order
// and every claim it wins is canonical, so its one task is one scope and
// the sink materializes exactly the peaks a whole-run fold does. Such a
// scope spans rewinds (positions jump back at every resumed fork while
// stream indices keep rising), which is why each materialized record
// keeps the stream index it was observed at rather than deriving it from
// its path position.
//
// The insertion process keeps the max(k, 1) addresses ranked highest by
// (per-address maximum, earliest attaining cycle). An observation the
// scope's own fold drops is either dominated by a same-address entry of
// the scope (equal or higher power, earlier) or lies below k stronger
// entries of the scope; those entries are at least as strong in the
// global fold, so the dropped observation is a no-op or gets evicted
// there too. Every entry of the global list thus reaches the replay as
// its scope's candidate, and the replay over a superset of those winners
// ranks them identically. In particular the run's first cycle attaining
// the global maximum is also the first attaining its own scope's
// maximum, so it is its scope's head when flushed.
//
// Two shared floors skip work without changing the result. Every record
// a scope materializes notes its (fetch address, power) on the Shared,
// which keeps the max(k, 1) distinct addresses with the highest noted
// power each and publishes two floors from that one list:
//
//   - The head floor, its first power, is the highest power any worker
//     has materialized: it never exceeds the final maximum. A cycle
//     entering its scope's head strictly below it cannot be the peak,
//     so it is materialized without its active-cell list. Ties with the
//     floor keep their cells, so the canonically-first attaining cycle
//     always carries them.
//   - The TopK floor, its k-th power once it holds k addresses, skips
//     the insertion for an observation strictly below it. k distinct
//     addresses reach the floor with real observations of the run, and
//     every address of the final list has its maximum at or above the
//     floor. A skipped observation is therefore never the entry of an
//     address in the final list: that entry is the address's earliest
//     maximum, which is at or above the last floor and so at or above
//     every floor. Skipping changes nothing else a scope does: the floor
//     only rises, so a skipped observation is below every later
//     unskipped one, and a floored scope keeps the same entries at or
//     above the floor as a floorless one and materializes no record the
//     floorless one would not. Ties with the floor are kept, so the
//     canonically-first cycle of a tied address survives.
//
// Any lower floors are sound too, which is why ones that start empty (a
// resumed run, whose replayed candidates do not raise them) or stay
// process-local (a fleet worker) are lossless.
package power

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// TaskSeed is the path context a mid-path exploration task inherits from
// the path prefix explored by its spawning task: the instruction fetch
// pipeline and the interrupt nesting depth as of the cycle before the
// task's first.
type TaskSeed struct {
	// Fetch and Prev are the in-flight and previous instruction fetch
	// addresses.
	Fetch, Prev uint16
	// Depth is the interrupt nesting depth.
	Depth int8
}

// Shared is the cross-worker state of one parallel exploration: the
// head floor, a monotone lower bound on the final peak below which a
// scope's head is materialized without its cells, and the TopK floor
// below which an observation does not enter a scope's list.
// One Shared instance is created per exploration and handed to every
// worker's sink via EnableTasks.
type Shared struct {
	// topk holds at most max(k, 1) distinct fetch addresses, each with
	// the highest power of a record any worker materialized there, sorted
	// descending. headBits is its first power; once it holds k addresses,
	// topkBits is its last: the TopK floor.
	mu       sync.Mutex
	topk     []addrPower
	headBits atomic.Uint64 // float64 bits; only ever raised
	topkBits atomic.Uint64 // float64 bits; 0 until k addresses are known
}

type addrPower struct {
	fetch uint16
	p     float64
}

// NewShared creates the shared reduction state for one exploration.
func NewShared() *Shared { return &Shared{} }

func (sh *Shared) headFloor() float64 { return math.Float64frombits(sh.headBits.Load()) }

func (sh *Shared) topkFloor() float64 { return math.Float64frombits(sh.topkBits.Load()) }

// noteTopK notes a materialized record of power p at fetch, for lists
// of capacity max(k, 1). A record at or below the published TopK floor
// cannot change the highest per-address powers, so it skips the lock.
func (sh *Shared) noteTopK(k int, fetch uint16, p float64) {
	if p <= sh.topkFloor() {
		return
	}
	k = max(k, 1)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	switch i := slices.IndexFunc(sh.topk, func(a addrPower) bool { return a.fetch == fetch }); {
	case i >= 0:
		sh.topk[i].p = max(sh.topk[i].p, p)
	case len(sh.topk) < k:
		sh.topk = append(sh.topk, addrPower{fetch, p})
	case p > sh.topk[k-1].p:
		sh.topk[k-1] = addrPower{fetch, p}
	}
	slices.SortFunc(sh.topk, func(a, b addrPower) int { return cmp.Compare(b.p, a.p) })
	sh.headBits.Store(math.Float64bits(sh.topk[0].p))
	if len(sh.topk) == k {
		sh.topkBits.Store(math.Float64bits(sh.topk[k-1].p))
	}
}

// PeakCand is a candidate peak observation awaiting the canonical merge,
// tagged with the coordinates that define its canonical position.
type PeakCand struct {
	// Peak is the observation, fully materialized at observation time
	// (module split, and the active-cell list for a scope's head).
	Peak Peak
	// Task and Stream locate the observation: the exploration task that
	// made it and its index in that task's observation stream.
	Task, Stream int
}

// EnableTasks attaches the exploration's common Shared floor. Must be
// called before any observation.
func (s *Sink) EnableTasks(shared *Shared) { s.shared = shared }

// BeginTask implements symx.WorkerSink: reset per-path state for a task
// rooted at absolute position basePos. seed is a TaskSeed (nil for the
// root task).
func (s *Sink) BeginTask(task, basePos int, seed interface{}) {
	s.task = task
	s.base = basePos
	s.stream = 0
	s.Trace = s.Trace[:0]
	s.fetches = s.fetches[:0]
	s.isrDepth = s.isrDepth[:0]
	if seed != nil {
		s.seed = seed.(TaskSeed)
	} else {
		s.seed = TaskSeed{}
	}
	s.taskTopk0 = len(s.topkCands)
	s.taskISR = 0
	s.actAccum.Reset()
	s.NewSegment()
}

// EndTask implements symx.WorkerSink: flush the task's last segment.
func (s *Sink) EndTask() { s.NewSegment() }

// NewSegment implements symx.WorkerSink: flush the scope's TopK list as
// candidates and start an empty scope.
func (s *Sink) NewSegment() {
	for _, pk := range s.TopK {
		s.topkCands = append(s.topkCands, PeakCand{Peak: pk, Task: s.task, Stream: s.topkStream[pk.FetchAddr]})
	}
	s.Best, s.TopK = Peak{}, s.TopK[:0]
}

// SpawnSeed implements symx.WorkerSink: the path context just before
// absolute position pos, used to seed a task resuming there.
func (s *Sink) SpawnSeed(pos int) interface{} {
	i := pos - s.base - 1
	if i < 0 {
		// The task forked on its very first cycle: pass through its own
		// inherited context.
		return s.seed
	}
	return TaskSeed{Fetch: s.fetches[i].fetch, Prev: s.fetches[i].prev, Depth: s.isrDepth[i]}
}

// sortCanonical orders candidates by (final node ID, stream index) —
// sequential observation order. Keys are unique: a node's observations belong to exactly one task, and a scope
// flushes at most one candidate per observation.
func sortCanonical(cs []PeakCand, nodeID func(task, stream int) int) {
	sort.Slice(cs, func(i, j int) bool {
		ni, nj := nodeID(cs[i].Task, cs[i].Stream), nodeID(cs[j].Task, cs[j].Stream)
		if ni != nj {
			return ni < nj
		}
		return cs[i].Stream < cs[j].Stream
	})
}
