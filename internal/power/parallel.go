// Deterministic reduction for parallel symbolic exploration.
//
// In task mode (EnableTasks) a Sink serves one worker of
// symx.ExploreParallel. The per-cycle quantities whose reduction is
// order-insensitive fold locally exactly as in sequential mode: the
// activity union is a set union, ISRPeakMW a plain maximum, and the
// power trace itself is stored per segment on the tree. The
// order-SENSITIVE reductions — Best (strict-> fold, so a tie keeps the
// first cycle in sequential order, with its attribution metadata) and
// TopK (an insertion process whose displacement decisions depend on
// arrival order) — cannot be folded across tasks live without making the
// Report depend on worker interleaving. Instead the sink runs the one
// sequential fold (Sink.observe) over one scope at a time: a tree
// segment. NewSegment, EndTask and MarshalTask flush the scope's Best and
// TopK list as candidates tagged with their (task, stream) coordinates,
// and MergeParallelReplay replays all candidates in canonical order —
// ascending (final tree-node ID, within-task stream index), which is
// exactly the order the sequential engine visits observations in —
// through the very same fold/insertion code, reproducing the sequential
// Best and TopK bit for bit.
//
// The per-scope fold is lossless because a segment is explored in one
// contiguous run: its observations are contiguous in canonical order and
// emitted in that order, so within a segment positions and stream indices
// both advance by one per observation (a candidate's stream index is
// scopeStream + PathPos − scopePos).
//
//   - Best: the run's first cycle attaining the global maximum is also the
//     first cycle attaining its own segment's maximum, which is exactly
//     what the segment's strict-> fold keeps. A shared monotone floor
//     (the highest power any worker has materialized so far) additionally
//     skips materializing a scope maximum strictly below it: the floor
//     never exceeds the final maximum, so such a cycle cannot be the
//     peak. Ties with the floor are kept, so the canonically-first
//     attaining cycle always survives.
//   - TopK: the insertion process keeps the k addresses ranked highest by
//     (per-address maximum, earliest attaining cycle). An observation
//     the segment's own top-k fold drops is either dominated by a
//     same-address entry of the segment (equal or higher power, earlier)
//     or lies below k stronger entries of the segment; those entries are
//     at least as strong in the global fold, so the dropped observation
//     is a no-op or gets evicted there too. Every entry of the global
//     list thus reaches the replay as its segment's candidate, and the
//     replay over a superset of those winners ranks them identically.
package power

import (
	"math"
	"sort"
	"sync/atomic"

	"repro/internal/netlist"
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
// not materialized.
// One Shared instance is created per exploration and handed to every
// worker's sink via EnableTasks.
type Shared struct {
	bestBits atomic.Uint64 // float64 bits; only ever raised
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

// EnableTasks switches the sink into task mode for one parallel
// exploration: Best and TopK fold one tree segment at a time, and the
// per-task records MarshalTask serializes are kept. Must be called before
// any observation; shared must be the exploration's common Shared
// instance.
func (s *Sink) EnableTasks(shared *Shared) {
	s.taskMode = true
	s.shared = shared
	s.taskAccum = make([]uint64, len(s.actAccum))
	s.taskVisit = func(ci netlist.CellID) { s.taskActive = append(s.taskActive, ci) }
}

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
	clear(s.taskAccum)
	s.taskActive = s.taskActive[:0]
	s.NewSegment()
}

// EndTask implements symx.WorkerSink: flush the task's last segment.
func (s *Sink) EndTask() { s.NewSegment() }

// NewSegment implements symx.WorkerSink. In task mode it flushes the
// scope's Best and TopK list as candidates and starts an empty scope at
// the current position; outside task mode the scope is the whole run.
func (s *Sink) NewSegment() {
	if !s.taskMode {
		return
	}
	if s.bestKept {
		s.bestCands = append(s.bestCands, s.cand(s.Best))
	}
	for _, pk := range s.TopK {
		s.topkCands = append(s.topkCands, s.cand(pk))
	}
	s.Best, s.bestKept, s.TopK = Peak{}, false, s.TopK[:0]
	s.scopePos, s.scopeStream = s.Pos(), s.stream
}

// cand tags a peak of the current scope with its canonical coordinates.
func (s *Sink) cand(pk Peak) PeakCand {
	return PeakCand{Peak: pk, Task: s.task, Stream: s.scopeStream + pk.PathPos - s.scopePos}
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
