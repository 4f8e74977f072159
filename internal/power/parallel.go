// Deterministic reduction for symbolic exploration.
//
// A Sink follows its worker through symx's task protocol (BeginTask,
// NewSegment, EndTask, MarshalTask). The per-cycle quantities whose
// reduction is order-insensitive fold locally: the activity union is a
// set union, ISRPeakMW a plain maximum, and the power trace itself is
// stored per segment on the tree. The order-SENSITIVE reductions — Best
// (strict-> fold, so a tie keeps the first cycle in canonical order, with
// its attribution metadata) and TopK (an insertion process whose
// displacement decisions depend on arrival order) — cannot be folded
// across tasks live without making the Report depend on worker
// interleaving. Instead the sink runs the one fold (Sink.observe) over one
// scope at a time. The explorer ends a scope (NewSegment, and every task
// boundary); the sink then flushes the scope's Best and TopK list as
// candidates tagged with their (task, stream) coordinates, and
// MergeParallelReplay replays all candidates in canonical order —
// ascending (final tree-node ID, within-task stream index), the order the
// canonical depth-first walk visits observations in — through the very
// same fold/insertion code, reproducing the canonical Best and TopK bit
// for bit.
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
//   - Best: the run's first cycle attaining the global maximum is also the
//     first cycle attaining its own scope's maximum, which is exactly
//     what the scope's strict-> fold keeps. A shared monotone floor
//     (the highest power any worker has materialized so far) additionally
//     skips materializing a scope maximum strictly below it: the floor
//     never exceeds the final maximum, so such a cycle cannot be the
//     peak. Ties with the floor are kept, so the canonically-first
//     attaining cycle always survives.
//   - TopK: the insertion process keeps the k addresses ranked highest by
//     (per-address maximum, earliest attaining cycle). An observation
//     the scope's own top-k fold drops is either dominated by a
//     same-address entry of the scope (equal or higher power, earlier)
//     or lies below k stronger entries of the scope; those entries are
//     at least as strong in the global fold, so the dropped observation
//     is a no-op or gets evicted there too. Every entry of the global
//     list thus reaches the replay as its scope's candidate, and the
//     replay over a superset of those winners ranks them identically.
//     A shared TopK floor additionally skips the insertion for an
//     observation strictly below it. Every record a scope materializes
//     notes its (fetch address, power) on the Shared, which keeps the k
//     distinct addresses with the highest noted power each and, once it
//     has k, publishes the lowest of those powers as the floor. So k
//     distinct addresses reach the floor with real observations of the
//     run, and every address of the final list has its maximum at or
//     above the floor. A skipped observation is therefore never the
//     entry of an address in the final list: that entry is the
//     address's earliest maximum, which is at or above the last floor
//     and so at or above every floor. Skipping changes nothing else a
//     scope does: the floor only rises, so a skipped observation is
//     below every later unskipped one, and a floored scope keeps the
//     same entries at or above the floor as a floorless one and
//     materializes no record the floorless one would not. Ties with the
//     floor are kept, so the canonically-first cycle of a tied address
//     survives. Any lower floor is sound too, which is why one that
//     starts empty (a resumed run, whose replayed candidates do not
//     raise it) or stays process-local (a fleet worker) is lossless.
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

// Shared is the cross-worker state of one parallel exploration: a
// monotone lower bound on the final peak below which a scope maximum is
// not materialized, and the TopK floor below which an observation does
// not enter a scope's TopK list.
// One Shared instance is created per exploration and handed to every
// worker's sink via EnableTasks.
type Shared struct {
	bestBits atomic.Uint64 // float64 bits; only ever raised

	// topk holds at most k distinct fetch addresses, each with the
	// highest power of a TopK record any worker materialized there,
	// sorted descending. Once it holds k, topkBits is the last power:
	// the TopK floor.
	mu       sync.Mutex
	topk     []addrPower
	topkBits atomic.Uint64 // float64 bits; 0 until k addresses are known
}

type addrPower struct {
	fetch uint16
	p     float64
}

// NewShared creates the shared reduction state for one exploration.
func NewShared() *Shared { return &Shared{} }

func (sh *Shared) floor() float64 { return math.Float64frombits(sh.bestBits.Load()) }

func (sh *Shared) raise(p float64) {
	for {
		old := sh.bestBits.Load()
		if math.Float64frombits(old) >= p {
			return
		}
		if sh.bestBits.CompareAndSwap(old, math.Float64bits(p)) {
			return
		}
	}
}

func (sh *Shared) topkFloor() float64 { return math.Float64frombits(sh.topkBits.Load()) }

// noteTopK notes a materialized TopK record of power p at fetch, for
// lists of capacity k. A record at or below the published floor cannot
// change the k highest per-address powers, so it skips the lock.
func (sh *Shared) noteTopK(k int, fetch uint16, p float64) {
	if p <= sh.topkFloor() {
		return
	}
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
	if len(sh.topk) == k {
		sh.topkBits.Store(math.Float64bits(sh.topk[k-1].p))
	}
}

// PeakCand is a candidate peak observation awaiting the canonical merge,
// tagged with the coordinates that define its canonical position.
type PeakCand struct {
	// Peak is the observation, fully materialized at observation time
	// (module split, and the active-cell list for Best candidates).
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
	s.taskBest0 = len(s.bestCands)
	s.taskTopk0 = len(s.topkCands)
	s.taskISR = 0
	s.actAccum.Reset()
	s.NewSegment()
}

// EndTask implements symx.WorkerSink: flush the task's last segment.
func (s *Sink) EndTask() { s.NewSegment() }

// NewSegment implements symx.WorkerSink: flush the scope's Best and TopK
// list as candidates and start an empty scope.
func (s *Sink) NewSegment() {
	if s.bestKept {
		s.bestCands = append(s.bestCands, PeakCand{Peak: s.Best, Task: s.task, Stream: s.bestStream})
	}
	for _, pk := range s.TopK {
		s.topkCands = append(s.topkCands, PeakCand{Peak: pk, Task: s.task, Stream: s.topkStream[pk.FetchAddr]})
	}
	s.Best, s.bestKept, s.TopK = Peak{}, false, s.TopK[:0]
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
// sequential observation order. Keys are unique within one candidate
// list: a node's observations belong to exactly one task, and a scope
// flushes at most one candidate per observation per list.
func sortCanonical(cs []PeakCand, nodeID func(task, stream int) int) {
	sort.Slice(cs, func(i, j int) bool {
		ni, nj := nodeID(cs[i].Task, cs[i].Stream), nodeID(cs[j].Task, cs[j].Stream)
		if ni != nj {
			return ni < nj
		}
		return cs[i].Stream < cs[j].Stream
	})
}
