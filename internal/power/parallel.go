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
// arrival order) — cannot be folded live without making the Report
// depend on worker interleaving. Instead each observation that could
// matter is materialized at observation time as a candidate tagged with
// its (task, stream) coordinates, and MergeParallelReplay replays all
// candidates in canonical order — ascending (final tree-node ID,
// within-task stream index), which is exactly the order the sequential
// engine visits observations in — through the very same fold/insertion
// code, reproducing the sequential Best and TopK bit for bit.
//
// The candidate filters are provably lossless:
//
//   - Within one tree segment, canonical order equals the task's own
//     emission order (a segment is explored in one contiguous run), so
//     an observation preceded in its segment by one of equal-or-higher
//     power (same fetch address, for TopK) can never beat it in the
//     canonical fold — only strict per-segment records are kept. For
//     TopK this needs the insertion process's monotonicity: the list
//     minimum never decreases and a per-address entry never decreases,
//     so an observation dominated by an earlier same-segment same-address
//     one is a no-op wherever it lands in the replay.
//   - For Best, a shared monotone floor (the highest power any worker
//     has observed so far) additionally prunes candidates strictly below
//     it: the floor is always <= the final maximum, and only
//     observations attaining the final maximum can become Best. Ties
//     with the floor are kept, so the canonically-first attaining cycle
//     — whose metadata the sequential fold would keep — always survives.
package power

import (
	"math"
	"sort"
	"sync/atomic"

	"repro/internal/gsim"
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
// monotone lower bound on the final peak used to prune Best candidates.
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
// exploration. Must be called before any observation; shared must be the
// exploration's common Shared instance.
func (s *Sink) EnableTasks(shared *Shared) {
	s.taskMode = true
	s.shared = shared
	s.segAddrMax = make(map[uint16]float64)
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
	if s.ckpt {
		s.taskBest0 = len(s.bestCands)
		s.taskTopk0 = len(s.topkCands)
		s.taskISR = 0
		for i := range s.taskAccum {
			s.taskAccum[i] = 0
		}
		s.taskActive = s.taskActive[:0]
	}
	s.NewSegment()
}

// EndTask implements symx.WorkerSink. Candidates are recorded as they
// arise, so there is nothing to flush.
func (s *Sink) EndTask() {}

// NewSegment implements symx.WorkerSink: reset the per-segment candidate
// filters at a tree-segment boundary.
func (s *Sink) NewSegment() {
	s.segBest = 0
	for a := range s.segAddrMax {
		delete(s.segAddrMax, a)
	}
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

// recordCandidates applies the per-segment filters to one observation
// and materializes the surviving Best/TopK candidates (task mode's
// replacement for the live Best/TopK fold).
func (s *Sink) recordCandidates(p float64, pos int, fc fetchCtx, sim *gsim.Simulator) {
	segRecord := p > s.segBest
	if segRecord {
		s.segBest = p
	}
	bestKeep := segRecord && p >= s.shared.floor()
	topKeep := false
	if s.k > 0 {
		if prev, ok := s.segAddrMax[fc.fetch]; !ok || p > prev {
			s.segAddrMax[fc.fetch] = p
			topKeep = true
		}
	}
	if !bestKeep && !topKeep {
		return
	}
	pk := s.makePeak(p, pos, fc, bestKeep, sim)
	if bestKeep {
		s.shared.raise(p)
		s.bestCands = append(s.bestCands, PeakCand{Peak: pk, Task: s.task, Stream: s.curStream})
	}
	if topKeep {
		t := pk
		t.ActiveCells = nil
		s.topkCands = append(s.topkCands, PeakCand{Peak: t, Task: s.task, Stream: s.curStream})
	}
}

// sortCanonical orders candidates by (final node ID, stream index) —
// sequential observation order. Keys are unique within one candidate
// list: a node's observations belong to exactly one task, and a task
// records at most one candidate per observation per list.
func sortCanonical(cs []PeakCand, nodeID func(task, stream int) int) {
	sort.Slice(cs, func(i, j int) bool {
		ni, nj := nodeID(cs[i].Task, cs[i].Stream), nodeID(cs[j].Task, cs[j].Stream)
		if ni != nj {
			return ni < nj
		}
		return cs[i].Stream < cs[j].Stream
	})
}
