package gsim

import "slices"

// Whole-step memoization. Loop-heavy explorations revisit whole
// processor states: a wait loop polling a symbolic input, a search loop
// whose live registers cycle through a short orbit. The step table keys
// the entire post-capture phase of a cycle — settle: combinational
// evaluation, activity and the energy bound — on one hash of the plane
// words that determine it, and replays the final planes, activity flags
// and energy bound in three plain copies.
//
// Chaining: the simulator remembers the entry whose output planes are
// its state at the end of the last step (packedSim.chain), and every
// entry learns, the first time it is followed, two things about the
// step after it: the flip-flop words the next clock edge writes (a pure
// function of the entry's output planes) and its successor, the entry
// that step hit or recorded. A step that starts from a chained entry
// stores the cached edge instead of gathering and clocking the
// flip-flops, and tries the predicted successor before it hashes. In a
// replayed orbit every step is then one masked edge store, one short
// verification (the input and flip-flop words only) and three copies.
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
//     (act, and the flip-flop slots gathered from prevV/prevK/act). It
//     reads a current word at or past srcHi only after writing it (the
//     latch left those words stale; see planes). The phase's output
//     state is therefore a pure function of the source: curV and curK
//     words [0, srcHi), prevV, prevK and act.
//   - Replay writes only what a later reader sees: the final current
//     planes, the activity flags and the cached energy bound (the very
//     float64 the live pass produced for these planes). The
//     combinational gather slots are scratch of the phase being
//     skipped; a hit never reads the flip-flop slots, and a miss after
//     a replayed edge gathers them in settle, from the prevV/prevK/act
//     the clock edge would have read.
//   - Entries are immutable: record never rewrites a mapped entry's
//     source or output planes. A colliding miss (same hash, different
//     planes) records a fresh entry that replaces the map slot, within
//     the byte budget like any other. Only edge, next and folded
//     change, and all three describe the output planes, which never
//     do. A link to a replaced entry therefore stays exact.
//   - The chain invariant: chain's output planes are exactly the
//     planes at the end of the last step. Replay and a stored record
//     set it; every clock edge, Restore, Rewind and EnableMemo clear it.
//     Outside a step only Restore and Rewind write the planes (SetNet
//     and WordPort.Drive only stage), and the clock edge reads only
//     prevV/prevK/act, copies of those output planes, so the cached
//     edge is exact. It is stored under a per-word mask of the
//     flip-flop positions, so staged inputs in a shared word survive.
//   - The successor check reads only the source's current words, the
//     input and flip-flop words. Between the end of one step and the
//     next lookup only the latch, staged inputs and bus writes (input
//     nets) and the clock edge (flip-flop positions) write the planes.
//     So at lookup prevV/prevK/act equal from's output planes (the
//     latch rotated them into place). The successor's source holds the
//     same values in those planes: the link was made by a step that
//     started from the same output planes, and neither entry changes
//     after record.
//   - The union stamp (folded) only lets AccumulateNewActive skip an
//     OR that would change nothing: chain is set exactly when the live
//     activity plane is the entry's output, and an accumulator only
//     grows within one epoch.
//   - Collisions cannot corrupt state: a hashed lookup compares the
//     whole source before a hit is taken. A wrong predicted
//     successor is an ordinary miss. Admission only decides what is
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
	// are large (six plane-sized arrays plus the input and flip-flop
	// words of the source and of the next clock edge); when full,
	// existing entries still serve hits.
	defaultStepMemoBytes = 24 << 20
)

// stepEntry holds one recorded cycle phase: the exact source words
// (collision-proof verification) and the resulting current planes,
// activity flags and energy bound; and, once the entry has been
// followed, the next clock edge and the successor entry.
type stepEntry struct {
	// src, out and edge share one allocation.
	src   []uint64 // curV[:srcHi] ‖ curK[:srcHi] ‖ prevV ‖ prevK ‖ act
	out   []uint64 // final curV ‖ curK ‖ act, 3×Words
	edge  []uint64 // next clock edge's curV ‖ curK flip-flop words
	bound float64

	// edge, edgeOK, next and folded are the only fields that change
	// after record; they describe out, which does not.
	edgeOK bool       // edge holds the clock edge that follows out
	next   *stepEntry // the entry the following step hit or recorded
	folded uint64     // the last accumulator epoch out's activity was ORed into
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
	pending bool
	pendKey uint64
	src     []uint64 // capture scratch, in stepEntry.src's layout; made on first capture

	// Per-step counters drained into the Simulator's atomics.
	stepHits, stepMisses uint64

	// edgeReplays and nextHits count cached clock edges and verified
	// successor predictions taken.
	edgeReplays, nextHits uint64
}

func newStepTable(maxBytes int) *stepTable {
	return &stepTable{
		maxBytes: maxBytes,
		seen:     make([]uint64, 0, stepProbationEarly),
	}
}

// lookup replays a verified hit, returning true (the caller skips
// settle). It first tries from's predicted successor, from being the
// chained entry the step started from (nil if none), with the short
// check of verifyNext; otherwise it hashes the source words. On a
// miss of a recording table it captures the planes and leaves them
// pending for record; before the first revisit it only notes the hash
// in seen.
func (st *stepTable) lookup(p *packedSim, from *stepEntry) bool {
	st.pending = false
	if st.disabled {
		return false
	}
	if from != nil && from.next != nil && st.verifyNext(p, from.next) {
		st.lookups++
		st.hits++
		st.stepHits++
		st.nextHits++
		st.replay(p, from.next)
		return true
	}
	h := uint64(memoBasis)
	hi := p.srcHi
	for _, plane := range [5][]uint64{p.curV[:hi], p.curK[:hi], p.prevV, p.prevK, p.act} {
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
		st.capture(p, h)
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
	st.capture(p, h)
	return false
}

// capture copies the source words into the scratch and leaves them
// pending for record under key h.
func (st *stepTable) capture(p *packedSim, h uint64) {
	hi := p.srcHi
	if st.src == nil {
		st.src = make([]uint64, 0, 2*hi+3*len(p.curV))
	}
	src := st.src[:0]
	src = append(src, p.curV[:hi]...)
	src = append(src, p.curK[:hi]...)
	src = append(src, p.prevV...)
	src = append(src, p.prevK...)
	src = append(src, p.act...)
	st.src = src
	st.pending = true
	st.pendKey = h
}

// verify compares an entry's recorded source words against the live
// planes — the collision-proof check a hashed replay requires.
func (st *stepTable) verify(p *packedSim, e *stepEntry) bool {
	n, h2 := len(p.curV), 2*p.srcHi
	s := e.src
	return st.verifyNext(p, e) &&
		sameWords(s[h2:h2+n], p.prevV) && sameWords(s[h2+n:h2+2*n], p.prevK) &&
		sameWords(s[h2+2*n:], p.act)
}

// verifyNext is verify for the predicted successor e of the entry the
// step started from: it compares only the current words [0, srcHi).
// The rest of e's source equals the live planes by construction (see
// the successor check above).
func (st *stepTable) verifyNext(p *packedSim, e *stepEntry) bool {
	hi := p.srcHi
	return sameWords(e.src[:hi], p.curV) && sameWords(e.src[hi:2*hi], p.curK)
}

// sameWords reports whether a and b (at least as long) hold the same
// words. It ORs the differences without an early exit: nearly every
// comparison is a hit, which reads every word anyway.
func sameWords(a, b []uint64) bool {
	b = b[:len(a)]
	var d uint64
	for i, w := range a {
		d |= w ^ b[i]
	}
	return d == 0
}

// replay applies a recorded cycle phase — the final current planes,
// activity flags and energy bound — and chains the simulator to it.
func (st *stepTable) replay(p *packedSim, e *stepEntry) {
	n := len(p.curV)
	copy(p.curV, e.out[:n])
	copy(p.curK, e.out[n:2*n])
	copy(p.act, e.out[2*n:])
	p.boundFJ = e.bound
	p.boundValid = true
	p.chain = e
}

// record stores the just-computed cycle phase for the pending miss as
// a fresh entry, which replaces a colliding one in its map slot, and
// chains the simulator to it. A full table records nothing.
func (st *stepTable) record(p *packedSim) {
	if !st.pending {
		return
	}
	st.pending = false
	n := len(p.curV)
	words := len(st.src) + 3*n + 2*len(p.ffMask)
	if st.bytes+8*words > st.maxBytes {
		return
	}
	all := make([]uint64, words)
	ns := len(st.src)
	e := &stepEntry{
		src:  all[:ns:ns],
		out:  all[ns : ns+3*n : ns+3*n],
		edge: all[ns+3*n:],
	}
	st.bytes += 8 * words
	st.entries[st.pendKey] = e
	copy(e.src, st.src)
	copy(e.out[:n], p.curV)
	copy(e.out[n:2*n], p.curK)
	copy(e.out[2*n:], p.act)
	e.bound = p.boundFJ
	p.chain = e
}
