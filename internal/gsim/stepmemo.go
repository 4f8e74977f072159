package gsim

import "slices"

// Whole-step memoization. Loop-heavy explorations revisit whole
// processor states: a wait loop polling a symbolic input, a search loop
// whose live registers cycle through a short orbit. The step table keys
// the entire post-capture phase of a cycle — settle: combinational
// evaluation, activity and the energy bound — on one hash of the five
// planes that determine it, and replays the final planes, activity
// flags and energy bound in three plain copies.
//
// Admission: a table records nothing until it has seen a revisit.
// Before that, a miss keeps only its 64-bit plane hash in a small seen
// set; path-divergent explorations (a search loop narrowing symbolic
// bounds) never revisit a state, so they pay for no plane copies
// before probation switches them off. The first lookup whose hash is
// in seen counts as a hit for probation (a hit would have replayed it
// had it been recorded) but is still a miss: the table drops seen,
// records that state, and from then on records every miss. The cost is
// one extra lap over the states seen before the first revisit.
//
// Soundness (DESIGN.md "Memoization soundness"):
//
//   - By the time the step table is consulted, every external input to
//     the cycle has already landed in the planes: staged inputs and bus
//     writes are in curV/curK, the clock edge has captured, and settle
//     reads only curV/curK/prevV/prevK plus the previous cycle's flags
//     (act, and the flip-flop slots the clock edge gathered from
//     prevV/prevK/act). The phase's output state is therefore a pure
//     function of (curV, curK, prevV, prevK, act).
//   - Replay writes only what a later reader sees: the final current
//     planes, the activity flags and the cached energy bound (the very
//     float64 the live pass produced for these planes). The gather
//     slots are scratch of the phase being skipped: the next clock edge
//     and settle overwrite them before reading them.
//   - Collisions cannot corrupt state: the full source planes are
//     compared before a hit is taken. Admission only decides what is
//     stored, so a collision in seen can only start recording early.
const (
	// memoBasis and memoPrime seed and step the FNV-style plane hash.
	memoBasis = 0x9E3779B97F4A7C15
	memoPrime = 1099511628211

	// stepProbationLookups / stepProbationHits: a simulator whose
	// program never revisits a state (straight-line code) must stop
	// paying the hash tax.
	// The window is long enough to span several iterations of the
	// slowest loops in the benchmark suite. stepProbationEarly cuts a
	// simulator with no hits at all off sooner — path-divergent
	// explorations never revisit a state, and each lookup still hashes
	// five planes; convergent workloads show their first revisit well
	// inside the early window. It also bounds seen: a table still
	// without a revisit at that lookup is disabled before it stores
	// another hash.
	stepProbationEarly   = 128
	stepProbationLookups = 512
	stepProbationHits    = 8

	// defaultStepMemoBytes bounds one simulator's step table. Entries
	// are large (eight plane-sized arrays); when full, existing entries
	// still serve hits.
	defaultStepMemoBytes = 24 << 20
)

// stepEntry holds one recorded cycle phase: the exact five source
// planes (collision-proof verification) and the resulting current
// planes, activity flags and energy bound.
type stepEntry struct {
	src   []uint64 // curV ‖ curK ‖ prevV ‖ prevK ‖ act, 5×Words
	out   []uint64 // final curV ‖ curK ‖ act, 3×Words
	bound float64
}

// stepTable is a per-simulator (single-goroutine) whole-step store.
type stepTable struct {
	entries  map[uint64]*stepEntry // nil until the first revisit
	bytes    int
	maxBytes int

	// seen holds the plane hashes of the misses before the first
	// revisit, at most stepProbationEarly of them; nil once recording
	// has begun or the table is disabled.
	seen []uint64

	lookups, hits uint32
	disabled      bool

	// pending carries a miss from lookup to record across the live
	// settle.
	pending   bool
	pendKey   uint64
	pendEntry *stepEntry
	src       []uint64 // capture scratch, 5×Words; made on first capture

	// Per-step counters drained into the Simulator's atomics.
	stepHits, stepMisses uint64
}

func newStepTable(maxBytes int) *stepTable {
	return &stepTable{
		maxBytes: maxBytes,
		seen:     make([]uint64, 0, stepProbationEarly),
	}
}

// lookup hashes the five source planes and replays a verified hit,
// returning true (the caller skips settle). On a miss of a recording
// table it captures the planes and leaves them pending for record;
// before the first revisit it only notes the hash in seen.
func (st *stepTable) lookup(p *packedSim) bool {
	st.pending = false
	if st.disabled {
		return false
	}
	h := uint64(memoBasis)
	for _, plane := range [5][]uint64{p.curV, p.curK, p.prevV, p.prevK, p.act} {
		for _, w := range plane {
			h = (h ^ w) * memoPrime
		}
	}
	st.lookups++
	if st.entries == nil && slices.Contains(st.seen, h) {
		// The first revisit: a hit for probation, a miss to replay.
		st.hits++
		st.stepMisses++
		st.seen = nil
		st.entries = make(map[uint64]*stepEntry)
		st.capture(p, h, nil)
		return false
	}
	e := st.entries[h]
	if e != nil && st.verify(p, e) {
		st.hits++
		st.stepHits++
		st.replay(p, e)
		return true
	}
	st.stepMisses++
	if st.lookups >= stepProbationLookups ||
		(st.lookups >= stepProbationEarly && st.hits == 0) {
		if st.hits < stepProbationHits {
			st.disabled = true
			st.entries = nil
			st.seen = nil
			st.src = nil
			return false
		}
		st.lookups, st.hits = 0, 0
	}
	if st.entries == nil {
		st.seen = append(st.seen, h)
		return false
	}
	st.capture(p, h, e)
	return false
}

// capture copies the five source planes into the scratch and leaves
// them pending for record under key h; e is the stale or colliding
// entry to overwrite in place, or nil.
func (st *stepTable) capture(p *packedSim, h uint64, e *stepEntry) {
	if st.src == nil {
		st.src = make([]uint64, 0, 5*len(p.curV))
	}
	src := st.src[:0]
	src = append(src, p.curV...)
	src = append(src, p.curK...)
	src = append(src, p.prevV...)
	src = append(src, p.prevK...)
	src = append(src, p.act...)
	st.src = src
	st.pending = true
	st.pendKey = h
	st.pendEntry = e
}

// verify compares an entry's recorded source planes against the live
// planes — the collision-proof check a replay requires.
func (st *stepTable) verify(p *packedSim, e *stepEntry) bool {
	n := len(p.curV)
	s := e.src
	for w := 0; w < n; w++ {
		if s[w] != p.curV[w] || s[n+w] != p.curK[w] ||
			s[2*n+w] != p.prevV[w] || s[3*n+w] != p.prevK[w] ||
			s[4*n+w] != p.act[w] {
			return false
		}
	}
	return true
}

// replay applies a recorded cycle phase: the final current planes,
// activity flags and energy bound.
func (st *stepTable) replay(p *packedSim, e *stepEntry) {
	n := len(p.curV)
	copy(p.curV, e.out[:n])
	copy(p.curK, e.out[n:2*n])
	copy(p.act, e.out[2*n:])
	p.boundFJ = e.bound
	p.boundValid = true
}

// record stores the just-computed cycle phase for the pending miss.
// A full table overwrites colliding entries but admits no new ones.
func (st *stepTable) record(p *packedSim) {
	if !st.pending {
		return
	}
	st.pending = false
	e := st.pendEntry
	n := len(p.curV)
	if e == nil {
		size := (len(st.src) + 3*n) * 8
		if st.bytes+size > st.maxBytes {
			return
		}
		e = &stepEntry{
			src: make([]uint64, len(st.src)),
			out: make([]uint64, 3*n),
		}
		st.bytes += size
		st.entries[st.pendKey] = e
	}
	copy(e.src, st.src)
	copy(e.out[:n], p.curV)
	copy(e.out[n:2*n], p.curK)
	copy(e.out[2*n:], p.act)
	e.bound = p.boundFJ
}
