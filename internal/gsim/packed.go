package gsim

import (
	"math/bits"

	"repro/internal/cell"
	"repro/internal/logic"
	"repro/internal/netlist"
)

// packedSim is the bit-packed engine's state: net values live in two
// planes of 64-bit words (value/known, canonical v&^k == 0) laid out by
// the netlist's PackedPlan, so one word operation evaluates up to 64
// same-kind gates and a pair of XORs yields 64 toggle flags.
//
// Every cycle settles every batch, in one topologically ordered pass
// that applies the activity rule to each batch right after evaluating
// it. Batch inputs are assembled by the plan's run-length-compressed
// gather programs (consecutive fan-in moves as multi-bit chunks, not
// single bits). Activity is one toggle word per 64 gates, with
// per-gate work only for unchanged-X outputs.
type packedSim struct {
	plan *netlist.PackedPlan

	curV, curK   []uint64 // settled values of the current cycle
	prevV, prevK []uint64 // settled values of the previous cycle
	act, prevAct []uint64 // activity flags, one bit per net position

	// stepMemo, when non-nil, replays whole settle+activity phases for
	// revisited states (see stepmemo.go).
	stepMemo *stepTable

	// boundFJ caches the cycle's Algorithm 2 energy bound, computed
	// for free during settle (which already holds every batch's
	// extracted planes and fresh activity word). boundValid is cleared
	// by Restore; BoundEnergyFJ then recomputes on demand.
	boundFJ    float64
	boundValid bool
}

func newPackedSim(plan *netlist.PackedPlan) *packedSim {
	nw := plan.Words
	return &packedSim{
		plan:    plan,
		curV:    make([]uint64, nw),
		curK:    make([]uint64, nw), // known = 0 everywhere: all nets X
		prevV:   make([]uint64, nw),
		prevK:   make([]uint64, nw),
		act:     make([]uint64, nw),
		prevAct: make([]uint64, nw),
	}
}

func (p *packedSim) val(id netlist.NetID) logic.Trit {
	pos := p.plan.Pos[id]
	return logic.TritFromPlane(p.curV[pos>>6], p.curK[pos>>6], uint(pos&63))
}

func (p *packedSim) prevVal(id netlist.NetID) logic.Trit {
	pos := p.plan.Pos[id]
	return logic.TritFromPlane(p.prevV[pos>>6], p.prevK[pos>>6], uint(pos&63))
}

func (p *packedSim) isActive(id netlist.NetID) bool {
	pos := p.plan.Pos[id]
	return p.act[pos>>6]>>uint(pos&63)&1 == 1
}

// setTrit writes one net immediately (staged inputs at cycle start, bus
// writes mid-cycle).
func (p *packedSim) setTrit(id netlist.NetID, t logic.Trit) {
	pos := p.plan.Pos[id]
	w, b := pos>>6, uint(pos&63)
	nv, nk := logic.PlaneFromTrit(t)
	mask := uint64(1) << b
	p.curV[w] = p.curV[w]&^mask | nv<<b
	p.curK[w] = p.curK[w]&^mask | nk<<b
}

// laneMask returns the low-n-bits mask (n in 1..64).
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

// gatherPair assembles a chunk's input word pair by executing the
// plan's run-length-compressed gather programs against a plane pair:
// consecutive source bits move as one shifted chunk (runs), broadcast
// runs (bruns) replicate one bit across their lanes by multiplication.
// The two run classes are pre-split so each loop is branch-free.
func gatherPair(vp, kp []uint64, runs, bruns []netlist.GatherRun) (v, k uint64) {
	for _, r := range runs {
		w, b := r.Src>>6, uint(r.Src&63)
		n := uint(r.N)
		m := ^uint64(0) >> (64 - n)
		lv := vp[w] >> b
		lk := kp[w] >> b
		if b != 0 && b+n > 64 {
			lv |= vp[w+1] << (64 - b)
			lk |= kp[w+1] << (64 - b)
		}
		v |= lv & m << r.Off
		k |= lk & m << r.Off
	}
	for _, r := range bruns {
		w, b := r.Src>>6, uint(r.Src&63)
		m := ^uint64(0) >> (64 - uint(r.N))
		v |= vp[w] >> b & 1 * m << r.Off
		k |= kp[w] >> b & 1 * m << r.Off
	}
	return v, k
}

// gatherFlags is gatherPair for a single plane (the activity flags).
func gatherFlags(p []uint64, runs, bruns []netlist.GatherRun) (v uint64) {
	for _, r := range runs {
		w, b := r.Src>>6, uint(r.Src&63)
		n := uint(r.N)
		m := ^uint64(0) >> (64 - n)
		lv := p[w] >> b
		if b != 0 && b+n > 64 {
			lv |= p[w+1] << (64 - b)
		}
		v |= lv & m << r.Off
	}
	for _, r := range bruns {
		w, b := r.Src>>6, uint(r.Src&63)
		m := ^uint64(0) >> (64 - uint(r.N))
		v |= p[w] >> b & 1 * m << r.Off
	}
	return v
}

// store writes n result lanes (bits [0,n) of ov/ok) to plane positions
// [pos, pos+n), read-modify-write.
func (p *packedSim) store(pos int32, n int, ov, ok uint64) {
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

// evalBatch evaluates one combinational batch chunk-by-chunk against
// the current planes.
func (p *packedSim) evalBatch(b *netlist.PackedBatch) {
	nin := b.NIn
	lanes := len(b.Cells)
	for c, lane0 := 0, 0; lane0 < lanes; c, lane0 = c+1, lane0+64 {
		n := min(64, lanes-lane0)
		var av, ak, bv, bk, cv, ck uint64
		if nin > 0 {
			av, ak = gatherPair(p.curV, p.curK, b.Gather[0][c], b.GatherB[0][c])
		}
		if nin > 1 {
			bv, bk = gatherPair(p.curV, p.curK, b.Gather[1][c], b.GatherB[1][c])
		}
		if nin > 2 {
			cv, ck = gatherPair(p.curV, p.curK, b.Gather[2][c], b.GatherB[2][c])
		}
		ov, ok := cell.EvalPlanes(b.Kind, av, ak, bv, bk, cv, ck, 0, 0)
		p.store(b.FirstPos+int32(lane0), n, ov, ok)
	}
}

// clockBatch computes one flip-flop batch's next state from the
// previous cycle's planes (the clock edge) and writes it into the
// current planes.
func (p *packedSim) clockBatch(b *netlist.PackedBatch) {
	nin := b.NIn
	lanes := len(b.Cells)
	for c, lane0 := 0, 0; lane0 < lanes; c, lane0 = c+1, lane0+64 {
		n := min(64, lanes-lane0)
		av, ak := gatherPair(p.prevV, p.prevK, b.Gather[0][c], b.GatherB[0][c])
		var bv, bk, cv, ck uint64
		if nin > 1 {
			bv, bk = gatherPair(p.prevV, p.prevK, b.Gather[1][c], b.GatherB[1][c])
		}
		if nin > 2 {
			cv, ck = gatherPair(p.prevV, p.prevK, b.Gather[2][c], b.GatherB[2][c])
		}
		// q is the batch's own output region of the previous cycle.
		pos := b.FirstPos + int32(lane0)
		qv := extract(p.prevV, pos, n)
		qk := extract(p.prevK, pos, n)
		ov, ok := cell.EvalPlanes(b.Kind, av, ak, bv, bk, cv, ck, qv, qk)
		p.store(pos, n, ov, ok)
	}
}

// stepPacked is the packed engine's cycle. It mirrors stepScalar phase
// for phase; only the evaluation strategy differs.
func (s *Simulator) stepPacked() {
	p := s.pk
	copy(p.prevV, p.curV)
	copy(p.prevK, p.curK)
	s.inStep = true

	// 0. Staged input assignments become the new cycle's input values.
	for _, si := range s.staged {
		p.setTrit(si.id, si.v)
	}
	s.staged = s.staged[:0]

	// 1. Clock edge: flip-flop batches capture from the previous planes.
	for bi := range p.plan.Seq {
		p.clockBatch(&p.plan.Seq[bi])
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
	if st == nil || !st.lookup(p) {
		p.settle(s)
		if st != nil {
			st.record(p)
		}
	}

	if st != nil && st.stepHits|st.stepMisses != 0 {
		s.memoHits.Add(int64(st.stepHits))
		s.memoMisses.Add(int64(st.stepMisses))
		st.stepHits, st.stepMisses = 0, 0
	}

	s.inStep = false
}

// settle evaluates every combinational batch and computes the per-net
// activity plane, mirroring the scalar rules: flip-flops first
// (X-activity from last cycle's flags), then primary inputs, then
// combinational batches level by level in topological order, each
// evaluated and then immediately given its activity (X-activity from
// current flags, which only earlier levels set). Toggles are one packed
// XOR pair per word; only unchanged-X outputs need per-gate fan-in
// checks. The cycle's energy bound accumulates in the same pass, in
// plan order: clock energy, flip-flop batches, then the levels.
func (p *packedSim) settle(s *Simulator) {
	copy(p.prevAct, p.act)
	plan := p.plan
	e := s.clkTotalFJ

	for bi := range plan.Seq {
		e += p.batchActivity(s, &plan.Seq[bi], true)
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
		for bi := range lv.Batches {
			b := &lv.Batches[bi]
			p.evalBatch(b)
			e += p.batchActivity(s, b, false)
		}
	}
	p.boundFJ = e
	p.boundValid = true
}

// batchActivity applies the activity rule to one batch, fully
// word-parallel: toggles from the packed XOR, then for unchanged-X
// outputs the driven-by-active cascade as an OR of the pins' gathered
// activity words. For flip-flops (seq true) the cascade reads last
// cycle's flags and is suppressed for lanes provably held (Dffre with
// known-idle enable and reset — no refinement can have toggled them).
//
// It returns the batch's Algorithm 2 energy bound for the cycle,
// computed from the words already in hand (see batchBoundFJ for the
// standalone form of the same classification).
func (p *packedSim) batchActivity(s *Simulator, b *netlist.PackedBatch, seq bool) float64 {
	nin := b.NIn
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
		actW := t
		// Unchanged-X outputs: active iff driven by an active gate.
		if pend := ^t & ^ck & m; pend != 0 && nin > 0 {
			flags := p.act
			if seq {
				flags = p.prevAct
			}
			in := gatherFlags(flags, b.Gather[0][c], b.GatherB[0][c])
			if nin > 1 && pend&^in != 0 {
				in |= gatherFlags(flags, b.Gather[1][c], b.GatherB[1][c])
			}
			if nin > 2 && pend&^in != 0 {
				in |= gatherFlags(flags, b.Gather[2][c], b.GatherB[2][c])
			}
			casc := pend & in
			if seq && b.Kind == cell.Dffre && casc != 0 {
				rv, rk := gatherPair(p.prevV, p.prevK, b.Gather[1][c], b.GatherB[1][c])
				ev, ek := gatherPair(p.prevV, p.prevK, b.Gather[2][c], b.GatherB[2][c])
				held := (rk &^ rv) & (ek &^ ev)
				casc &^= held
			}
			actW |= casc
		}
		p.storeAct(pos, n, actW)

		// Energy bound, from the same words.
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

// forEachActiveCell scans the activity plane's set bits and reports the
// driving cell of each active net position, skipping primary inputs.
func (p *packedSim) forEachActiveCell(f func(netlist.CellID)) {
	cells := p.plan.CellOfPos
	for w, a := range p.act {
		base := w * 64
		for a != 0 {
			bit := bits.TrailingZeros64(a)
			a &^= 1 << uint(bit)
			if ci := cells[base+bit]; ci >= 0 {
				f(ci)
			}
		}
	}
}

// accumulateNewActive ORs the activity plane into acc and calls f for
// every newly set position that maps to a cell. Work beyond the word
// ORs is proportional to positions never active before, so a whole-run
// union costs O(distinct active cells) total, not O(cells) per cycle.
func (p *packedSim) accumulateNewActive(acc []uint64, f func(netlist.CellID)) {
	cells := p.plan.CellOfPos
	for w, a := range p.act {
		fresh := a &^ acc[w]
		if fresh == 0 {
			continue
		}
		acc[w] |= a
		base := w * 64
		for fresh != 0 {
			bit := bits.TrailingZeros64(fresh)
			fresh &^= 1 << uint(bit)
			if ci := cells[base+bit]; ci >= 0 {
				f(ci)
			}
		}
	}
}

// boundEnergyFJ is the packed fast path of the streaming Algorithm 2
// bound (power.CycleBoundFJ's rule): known-to-known transitions are
// counted with popcounts per same-kind batch region and multiplied by
// the library's rise/fall energies; only active X-involved gates need
// word-classified popcounts. Clock-pin energy is the precomputed
// constant. The rule is cross-tested against the reference sum in
// package power. Settle computes the same sum for free each
// Step (batchActivity already holds every word), so this usually
// returns the cached value; the standalone walk below serves a
// simulator whose activity flags were cleared by Restore.
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
