package gsim

import (
	"math/bits"

	"repro/internal/cell"
	"repro/internal/netlist"
)

// packedSim is the bit-packed engine's state. It evaluates the shared
// planes a word at a time, in the netlist's PackedPlan layout: one word
// operation evaluates up to 64 same-kind gates and a pair of XORs
// yields 64 toggle flags.
//
// Every cycle settles every batch, in one topologically ordered pass.
// Each level starts with one walk of its flat gather program, which
// fills a slot per (batch, pin, chunk) with the input words of the
// value, known and flag planes at once (consecutive fan-in moves as one
// rotate-and-mask copy per source word, not bit by bit). A per-chunk
// pass over the level's batches then evaluates each chunk, stores it and
// gives it its activity from the same slots. Activity is one toggle
// word per 64 gates; the driven-by-active cascade for unchanged-X
// outputs is one AND with the OR of the pins' gathered flags.
type packedSim struct {
	// planes is a by-value copy of the Simulator's: the slice headers
	// alias the same arrays, so the hot loops reach them with no
	// pointer hop.
	planes

	// slots is the combinational levels' gather scratch, one value,
	// known, flag triple per slot of the widest level; seqSlots is the
	// flip-flops', gathered at the clock edge from the previous planes
	// and last cycle's flags and read again by settle's flip-flop
	// activity.
	slots, seqSlots [][3]uint64

	// stepMemo, when non-nil, replays whole settle+activity phases for
	// revisited states (see stepmemo.go). chain is the entry whose
	// output planes are the state at the end of the last step, or nil;
	// every clock edge, Restore, Rewind and EnableMemo clear it.
	stepMemo *stepTable
	chain    *stepEntry

	// boundFJ caches the cycle's Algorithm 2 energy bound, computed
	// for free during settle (which already holds every batch's
	// extracted planes and fresh activity word). boundValid is cleared
	// by Restore and Rewind; BoundEnergyFJ then recomputes on demand.
	boundFJ    float64
	boundValid bool
}

func newPackedSim(pl planes) *packedSim {
	widest := 0
	for li := range pl.plan.Levels {
		widest = max(widest, pl.plan.Levels[li].Gather.Slots)
	}
	return &packedSim{
		planes:   pl,
		slots:    make([][3]uint64, widest),
		seqSlots: make([][3]uint64, pl.plan.SeqGather.Slots),
	}
}

// laneMask returns the low-n-bits mask (n in 0..64).
func laneMask(n int) uint64 {
	return ^uint64(0) >> (64 - uint(n))
}

// extract reads n consecutive plane bits starting at pos into bits
// [0, n) of a word.
func extract(plane []uint64, pos int32, n int) uint64 {
	w, b := pos>>6, uint(pos&63)
	v := plane[w] >> b
	if b != 0 && int(b)+n > 64 {
		v |= plane[w+1] << (64 - b)
	}
	return v & laneMask(n)
}

// gather runs a gather program against the value, known and flag
// planes v, k and a, filling slots[:g.Slots] with each slot's three
// input words.
func gather(g *netlist.GatherProgram, v, k, a []uint64, slots [][3]uint64) {
	slots = slots[:g.Slots]
	clear(slots)
	k, a = k[:len(v)], a[:len(v)]
	for _, o := range g.Ops {
		w, r := o.Word(), o.Shift()
		d := &slots[o.Slot]
		d[0] |= bits.RotateLeft64(v[w], r) & o.Mask
		d[1] |= bits.RotateLeft64(k[w], r) & o.Mask
		d[2] |= bits.RotateLeft64(a[w], r) & o.Mask
	}
	for _, o := range g.Bcast {
		w, b := o.Word(), o.Shift()
		d := &slots[o.Slot]
		d[0] |= -(v[w] >> b & 1) & o.Mask
		d[1] |= -(k[w] >> b & 1) & o.Mask
		d[2] |= -(a[w] >> b & 1) & o.Mask
	}
}

// store writes n lanes (bits [0,n) of ov/ok) to the current planes at
// positions [pos, pos+n), read-modify-write.
func (p *planes) store(pos int32, n int, ov, ok uint64) {
	w, b := pos>>6, uint(pos&63)
	m := laneMask(n)
	lm := m << b
	p.curV[w] = p.curV[w]&^lm | ov<<b&lm
	p.curK[w] = p.curK[w]&^lm | ok<<b&lm
	if b != 0 && int(b)+n > 64 {
		hm := m >> (64 - b)
		p.curV[w+1] = p.curV[w+1]&^hm | ov>>(64-b)&hm
		p.curK[w+1] = p.curK[w+1]&^hm | ok>>(64-b)&hm
	}
}

// storeAct writes n activity lanes to act positions [pos, pos+n).
func (p *packedSim) storeAct(pos int32, n int, a uint64) {
	w, b := pos>>6, uint(pos&63)
	m := laneMask(n)
	lm := m << b
	p.act[w] = p.act[w]&^lm | a<<b&lm
	if b != 0 && int(b)+n > 64 {
		hm := m >> (64 - b)
		p.act[w+1] = p.act[w+1]&^hm | a>>(64-b)&hm
	}
}

// clockBatch computes one flip-flop batch's next state from its
// gathered slots (the previous cycle's planes: the clock edge) and
// writes it into the current planes.
func (p *packedSim) clockBatch(b *netlist.PackedBatch) {
	lanes := len(b.Cells)
	for c, lane0 := 0, 0; lane0 < lanes; c, lane0 = c+1, lane0+64 {
		n := min(64, lanes-lane0)
		pa, pb, pc := pinSlots(p.seqSlots, b, c)
		// q is the batch's own output region of the previous cycle.
		pos := b.FirstPos + int32(lane0)
		qv := extract(p.prevV, pos, n)
		qk := extract(p.prevK, pos, n)
		ov, ok := cell.EvalPlanes(b.Kind, pa[0], pa[1], pb[0], pb[1], pc[0], pc[1], qv, qk)
		p.store(pos, n, ov, ok)
	}
}

// pinSlots returns chunk c's gathered value/known/flag words for each
// of the batch's input pins, zero for the pins its kind lacks.
func pinSlots(slots [][3]uint64, b *netlist.PackedBatch, c int) (pa, pb, pc [3]uint64) {
	s, chunks := int(b.Slot)+c, b.Chunks()
	if b.NIn > 0 {
		pa = slots[s]
	}
	if b.NIn > 1 {
		pb = slots[s+chunks]
	}
	if b.NIn > 2 {
		pc = slots[s+2*chunks]
	}
	return pa, pb, pc
}

// stepPacked is the packed engine's cycle after Step's phase 0. It
// mirrors stepScalar phase for phase; only the evaluation strategy
// differs.
func (s *Simulator) stepPacked() {
	p := s.pk

	// 1. Clock edge: flip-flop batches capture from the previous planes.
	// act still holds last cycle's flags, which settle's flip-flop
	// activity reads from the same slots. A step that starts from a
	// chained memo entry stores the edge the entry cached instead.
	from := p.chain
	p.chain = nil
	edgeReplayed := from != nil && from.edgeOK
	if edgeReplayed {
		p.replayEdge(from.edge)
		p.stepMemo.edgeReplays++
	} else {
		gather(&p.plan.SeqGather, p.prevV, p.prevK, p.act, p.seqSlots)
		for bi := range p.plan.Seq {
			p.clockBatch(&p.plan.Seq[bi])
		}
		if from != nil {
			p.saveEdge(from)
		}
	}

	// 2. External bus observes registered outputs and drives read data.
	if s.bus != nil {
		s.bus.Tick(s)
	}

	// 3. The rest of the cycle — settle: combinational evaluation,
	// activity and the energy bound — is a pure function of the five
	// planes now in hand (every external write has landed); a
	// whole-step memo hit replays it outright (see stepmemo.go).
	st := p.stepMemo
	if st == nil || !st.lookup(p, from) {
		p.settle(s, edgeReplayed)
		if st != nil {
			st.record(p)
		}
	}
	if from != nil && p.chain != nil {
		from.next = p.chain
	}

	if st != nil && st.stepHits|st.stepMisses != 0 {
		s.memoHits.Add(int64(st.stepHits))
		s.memoMisses.Add(int64(st.stepMisses))
		st.stepHits, st.stepMisses = 0, 0
	}
}

// saveEdge caches in e, the chained entry the step started from, the
// words of the flip-flop region the clock edge just wrote.
func (p *packedSim) saveEdge(e *stepEntry) {
	lo, n := p.ffLo, len(p.ffMask)
	copy(e.edge[:n], p.curV[lo:lo+n])
	copy(e.edge[n:], p.curK[lo:lo+n])
	e.edgeOK = true
}

// replayEdge stores a cached clock edge: the flip-flop bits of each
// edge word, leaving the staged inputs and combinational outputs that
// share the region's first and last words as they are.
func (p *packedSim) replayEdge(edge []uint64) {
	lo, n := p.ffLo, len(p.ffMask)
	v, k := p.curV[lo:lo+n], p.curK[lo:lo+n]
	for i, m := range p.ffMask {
		v[i] = v[i]&^m | edge[i]&m
		k[i] = k[i]&^m | edge[n+i]&m
	}
}

// settle evaluates every combinational batch and computes the per-net
// activity plane, mirroring the scalar rules: flip-flops first
// (X-activity from last cycle's flags), then primary inputs, then
// combinational batches level by level in topological order, each
// level gathered once and each batch evaluated and immediately given
// its activity (X-activity from current flags, which only earlier
// levels set). Toggles are one packed XOR pair per word; only
// unchanged-X outputs need the fan-in cascade. The cycle's energy bound
// accumulates in the same pass, in plan order: clock energy, flip-flop
// batches, then the levels. gatherSeq is set when the clock edge was
// replayed from the memo and left the flip-flop slots ungathered; prevV,
// prevK and act still hold what the edge would have read.
func (p *packedSim) settle(s *Simulator, gatherSeq bool) {
	plan := p.plan
	e := s.clkTotalFJ

	if gatherSeq {
		gather(&plan.SeqGather, p.prevV, p.prevK, p.act, p.seqSlots)
	}

	for bi := range plan.Seq {
		e += p.seqActivity(s, &plan.Seq[bi])
	}

	// Primary inputs occupy positions [0, InputBits), word-aligned at
	// the plane's start: active when toggled or unknown.
	for w, bit := int32(0), 0; bit < plan.InputBits; w, bit = w+1, bit+64 {
		n := min(64, plan.InputBits-bit)
		mask := laneMask(n)
		t := (p.prevV[w] ^ p.curV[w]) | (p.prevK[w] ^ p.curK[w])
		p.act[w] = p.act[w]&^mask | (t|^p.curK[w])&mask
	}

	for li := range plan.Levels {
		lv := &plan.Levels[li]
		gather(&lv.Gather, p.curV, p.curK, p.act, p.slots)
		for bi := range lv.Batches {
			e += p.settleBatch(s, &lv.Batches[bi])
		}
	}
	p.boundFJ = e
	p.boundValid = true
}

// settleBatch evaluates one combinational batch from its gathered
// slots, chunk by chunk, and applies the activity rule to each chunk
// from the same words: toggles from the packed XOR, and for
// unchanged-X outputs the driven-by-active cascade as an AND with the
// OR of the pins' gathered flags. It returns the batch's Algorithm 2
// energy bound for the cycle (see batchBoundFJ for the standalone form
// of the same classification).
func (p *packedSim) settleBatch(s *Simulator, b *netlist.PackedBatch) float64 {
	lanes := len(b.Cells)
	rise, fall, maxE := s.riseFJ[b.Kind], s.fallFJ[b.Kind], s.maxFJ[b.Kind]
	e := 0.0
	for c, lane0 := 0, 0; lane0 < lanes; c, lane0 = c+1, lane0+64 {
		n := min(64, lanes-lane0)
		m := laneMask(n)
		pa, pb, pc := pinSlots(p.slots, b, c)
		ov, ok := cell.EvalPlanes(b.Kind, pa[0], pa[1], pb[0], pb[1], pc[0], pc[1], 0, 0)
		pos := b.FirstPos + int32(lane0)
		p.store(pos, n, ov, ok)

		cv, ck := ov&m, ok&m
		pv := extract(p.prevV, pos, n)
		pk := extract(p.prevK, pos, n)
		t := ((pv ^ cv) | (pk ^ ck)) & m
		// Unchanged-X outputs: active iff driven by an active gate.
		actW := t | ^t&^ck&m&(pa[2]|pb[2]|pc[2])
		p.storeAct(pos, n, actW)
		e += chunkBoundFJ(pv, pk, cv, ck, actW, m, rise, fall, maxE)
	}
	return e
}

// seqActivity applies the activity rule to one flip-flop batch, whose
// new state the clock edge already stored: as settleBatch, but the
// cascade reads last cycle's flags from the clock edge's slots and is
// suppressed for lanes provably held (Dffre with known-idle enable and
// reset — no refinement can have toggled them).
func (p *packedSim) seqActivity(s *Simulator, b *netlist.PackedBatch) float64 {
	lanes := len(b.Cells)
	rise, fall, maxE := s.riseFJ[b.Kind], s.fallFJ[b.Kind], s.maxFJ[b.Kind]
	e := 0.0
	for c, lane0 := 0, 0; lane0 < lanes; c, lane0 = c+1, lane0+64 {
		n := min(64, lanes-lane0)
		m := laneMask(n)
		pos := b.FirstPos + int32(lane0)
		cv := extract(p.curV, pos, n)
		ck := extract(p.curK, pos, n)
		pv := extract(p.prevV, pos, n)
		pk := extract(p.prevK, pos, n)
		t := ((pv ^ cv) | (pk ^ ck)) & m
		pa, pb, pc := pinSlots(p.seqSlots, b, c)
		casc := ^t & ^ck & m & (pa[2] | pb[2] | pc[2])
		if b.Kind == cell.Dffre {
			// pb and pc are the reset and enable pins.
			casc &^= (pb[1] &^ pb[0]) & (pc[1] &^ pc[0])
		}
		actW := t | casc
		p.storeAct(pos, n, actW)
		e += chunkBoundFJ(pv, pk, cv, ck, actW, m, rise, fall, maxE)
	}
	return e
}

// chunkBoundFJ is the word-parallel Algorithm 2 classification for one
// chunk: known-to-known transitions by popcount, X-involved active
// gates (actW) classified by their known endpoint — both-X takes the
// library's max transition, "left a known 0" / "arrived at a known 1"
// is a rise, the mirror a fall. Canonical planes make "known 0" one
// AND-NOT. Shared by settle and the standalone post-Restore walk so
// the rule cannot diverge.
func chunkBoundFJ(pv, pk, cv, ck, actW, m uint64, rise, fall, maxE float64) float64 {
	e := 0.0
	bothK := pk & ck
	if r := bothK &^ pv & cv & m; r != 0 {
		e += float64(bits.OnesCount64(r)) * rise
	}
	if f := bothK & pv &^ cv & m; f != 0 {
		e += float64(bits.OnesCount64(f)) * fall
	}
	if xa := actW & ^bothK & m; xa != 0 {
		e += float64(bits.OnesCount64(xa&^pk&^ck)) * maxE
		e += float64(bits.OnesCount64(xa&pk&^pv)+bits.OnesCount64(xa&ck&cv)) * rise
		e += float64(bits.OnesCount64(xa&pv)+bits.OnesCount64(xa&ck&^cv)) * fall
	}
	return e
}

// boundEnergyFJ is the packed fast path of the streaming Algorithm 2
// bound (the per-cell rule of power's cellBoundFJ): known-to-known
// transitions are counted with popcounts per same-kind batch region and
// multiplied by the library's rise/fall energies; only active
// X-involved gates need word-classified popcounts. Clock-pin energy is
// the precomputed constant. Package power's tests hold the rule to a
// cell-by-cell reference sum. Settle computes the same sum for free each
// Step (it already holds every word), so this usually
// returns the cached value; the standalone walk below serves a
// simulator whose activity flags were cleared by Restore or Rewind.
func (p *packedSim) boundEnergyFJ(s *Simulator) float64 {
	if p.boundValid {
		return p.boundFJ
	}
	e := s.clkTotalFJ
	for bi := range p.plan.Seq {
		e += p.batchBoundFJ(s, &p.plan.Seq[bi])
	}
	for li := range p.plan.Levels {
		lv := &p.plan.Levels[li]
		for bi := range lv.Batches {
			e += p.batchBoundFJ(s, &lv.Batches[bi])
		}
	}
	return e
}

func (p *packedSim) batchBoundFJ(s *Simulator, b *netlist.PackedBatch) float64 {
	rise, fall, maxE := s.riseFJ[b.Kind], s.fallFJ[b.Kind], s.maxFJ[b.Kind]
	e := 0.0
	lanes := len(b.Cells)
	for lane0 := 0; lane0 < lanes; lane0 += 64 {
		n := min(64, lanes-lane0)
		pos := b.FirstPos + int32(lane0)
		m := laneMask(n)
		cv := extract(p.curV, pos, n)
		ck := extract(p.curK, pos, n)
		pv := extract(p.prevV, pos, n)
		pk := extract(p.prevK, pos, n)
		e += chunkBoundFJ(pv, pk, cv, ck, extract(p.act, pos, n), m, rise, fall, maxE)
	}
	return e
}
