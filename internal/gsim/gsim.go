// Package gsim is the cycle-based gate-level simulator at the heart of the
// co-analysis. It evaluates a built netlist in the three-valued domain of
// package logic, so the same engine performs both concrete ("input-based")
// simulation and the symbolic ("X-based") simulation of the paper's
// Section 3.1, in which unknown values are propagated for all inputs.
//
// Each Step models one clock cycle of a design with a registered bus
// interface:
//
//  1. flip-flops capture their next state (computed from last cycle's
//     settled values),
//  2. the external Bus observes the freshly captured, registered bus
//     outputs, services the access, and drives the read-data inputs,
//  3. combinational logic settles in one topologically ordered pass,
//  4. per-gate activity is derived by comparing against the previous
//     cycle's settled values.
//
// Activity follows the paper's definition: a gate is active in a cycle if
// its output value changed, or if its output is X and it is driven by an
// active gate (Section 3.1).
//
// # Engines
//
// Two interchangeable engines implement those semantics behind one
// Simulator API, selected at construction with NewEngine. Both keep net
// state in one layout, laid out by the netlist's PackedPlan: the
// current and previous cycle's value/known bit-planes of 64-bit words
// (canonical v&^k == 0, so zero known bits mean X) and an activity
// plane. Val, Active, SetNet, snapshots, the activity walks and the
// portable state codec therefore exist once, and a snapshot taken on
// one engine restores on the other. Only evaluation differs:
//
//   - EnginePacked (the default) evaluates the PackedPlan: same-kind
//     gate batches, word-parallel cell.EvalPlanes evaluation of every
//     batch every cycle, in one topologically ordered pass that also
//     derives each batch's activity. Each level's inputs are gathered
//     once, by one flat rotate-and-mask program over the value, known
//     and activity planes together. Activity toggles fall out of a
//     packed XOR of the previous and current planes; only unchanged-X
//     gates need the per-gate driven-by-active cascade.
//   - EngineScalar is the straightforward one-cell.Eval-per-gate
//     reference implementation, reading and writing one net at a time
//     through the planes. It is retained as the differential-testing
//     oracle: the property tests in this package drive random netlists
//     through both engines and require word-identical planes and equal
//     state hashes.
//
// Both engines are deterministic; a concrete execution is always a
// refinement of a symbolic one, and the two engines agree symbol for
// symbol on every net, every cycle.
package gsim

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"repro/internal/cell"
	"repro/internal/logic"
	"repro/internal/netlist"
)

// Engine selects the evaluation engine backing a Simulator.
type Engine uint8

const (
	// EnginePacked is the bit-packed, levelized engine — the default.
	EnginePacked Engine = iota
	// EngineScalar is the per-gate reference engine, kept as the
	// differential-testing oracle.
	EngineScalar
)

// String names the engine ("packed" or "scalar").
func (e Engine) String() string {
	switch e {
	case EnginePacked:
		return "packed"
	case EngineScalar:
		return "scalar"
	}
	return fmt.Sprintf("Engine(%d)", uint8(e))
}

// ParseEngine resolves an engine name accepted by String.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "packed":
		return EnginePacked, nil
	case "scalar":
		return EngineScalar, nil
	}
	return 0, fmt.Errorf("gsim: unknown engine %q (want packed or scalar)", s)
}

// Bus services memory/peripheral accesses. Tick is called once per cycle
// after flip-flops have captured and before combinational settling; it
// may read registered output nets with s.Val and must drive read-data
// primary inputs with s.SetNet.
type Bus interface {
	Tick(s *Simulator)
}

// CycleHook observes every completed cycle; used by power analysis,
// activity recording, and VCD dumping. prev and cur are the settled net
// values of the previous and current cycle (do not retain or mutate).
type CycleHook func(cycle uint64, s *Simulator)

// Simulator simulates one netlist instance.
type Simulator struct {
	n      *netlist.Netlist
	lib    *cell.Library
	bus    Bus
	engine Engine

	planes // net state, shared by both engines

	// Scalar engine scratch (EngineScalar only).
	order   []netlist.CellID // combinational cells in topological order
	prevAct []uint64         // last cycle's activity plane

	// Packed engine state (EnginePacked only); its planes alias the
	// Simulator's.
	pk *packedSim

	seq []netlist.CellID

	staged []stagedInput
	inStep bool

	cycle uint64
	hooks []CycleHook

	// Memoization hit/miss totals, atomic so a progress reporter can
	// read them while another goroutine steps the simulator.
	memoHits, memoMisses atomic.Int64

	// Per-kind transition-energy tables and the design's total
	// clock-pin energy, precomputed from lib for BoundEnergyFJ.
	riseFJ, fallFJ, maxFJ [cell.NumKinds]float64
	clkTotalFJ            float64
}

// stagedInput is an input assignment made between Steps; it takes effect
// at the start of the next cycle, after the previous cycle's values have
// been latched as "previous" (so input changes register as activity).
type stagedInput struct {
	id netlist.NetID
	v  logic.Trit
}

// New creates a simulator for a built netlist using the default packed
// engine. All nets start at X — the paper's initial condition ("the
// states of all gates ... are initialized to Xs").
func New(n *netlist.Netlist, lib *cell.Library, bus Bus) *Simulator {
	return NewEngine(n, lib, bus, EnginePacked)
}

// NewEngine creates a simulator backed by the chosen engine. Both
// engines implement identical semantics; EngineScalar is the slow
// reference oracle.
func NewEngine(n *netlist.Netlist, lib *cell.Library, bus Bus, engine Engine) *Simulator {
	if !n.Built() {
		panic("gsim: netlist not built")
	}
	s := &Simulator{
		n: n, lib: lib, bus: bus, engine: engine,
		seq: n.Sequential(),
	}
	for _, k := range cell.Kinds() {
		p := lib.Params(k)
		s.riseFJ[k] = p.EnergyRise
		s.fallFJ[k] = p.EnergyFall
		_, _, s.maxFJ[k] = lib.MaxTransition(k)
	}
	for ci := 0; ci < n.NumCells(); ci++ {
		s.clkTotalFJ += lib.Params(n.Cell(netlist.CellID(ci)).Kind).EnergyClk
	}
	s.planes = newPlanes(n.Packed())
	switch engine {
	case EnginePacked:
		s.pk = newPackedSim(s.planes)
	case EngineScalar:
		for _, level := range n.Levels() {
			s.order = append(s.order, level...)
		}
		s.prevAct = make([]uint64, len(s.act))
	default:
		panic("gsim: unknown engine")
	}
	return s
}

// Netlist returns the simulated design.
func (s *Simulator) Netlist() *netlist.Netlist { return s.n }

// Library returns the cell library used for power lookups.
func (s *Simulator) Library() *cell.Library { return s.lib }

// Engine reports which evaluation engine backs the simulator.
func (s *Simulator) Engine() Engine { return s.engine }

// Cycle returns the number of completed Steps.
func (s *Simulator) Cycle() uint64 { return s.cycle }

// AddHook registers a per-cycle observer.
func (s *Simulator) AddHook(h CycleHook) { s.hooks = append(s.hooks, h) }

// planes is the net state of both engines: the value/known planes of
// the current and previous cycle (canonical v&^k == 0; all-zero planes
// are the all-X initial condition) and the activity plane, one bit per
// net at the position the netlist's PackedPlan assigns it.
type planes struct {
	plan *netlist.PackedPlan

	curV, curK   []uint64 // settled values of the current cycle
	prevV, prevK []uint64 // settled values of the previous cycle
	act          []uint64 // activity flags, one bit per net position
}

func newPlanes(plan *netlist.PackedPlan) planes {
	nw := plan.Words
	return planes{
		plan:  plan,
		curV:  make([]uint64, nw),
		curK:  make([]uint64, nw),
		prevV: make([]uint64, nw),
		prevK: make([]uint64, nw),
		act:   make([]uint64, nw),
	}
}

func (p *planes) val(id netlist.NetID) logic.Trit {
	pos := p.plan.Pos[id]
	return logic.TritFromPlane(p.curV[pos>>6], p.curK[pos>>6], uint(pos&63))
}

func (p *planes) prevVal(id netlist.NetID) logic.Trit {
	pos := p.plan.Pos[id]
	return logic.TritFromPlane(p.prevV[pos>>6], p.prevK[pos>>6], uint(pos&63))
}

func (p *planes) isActive(id netlist.NetID) bool {
	return planeBit(p.act, p.plan.Pos[id])
}

// planeBit reads one bit of a one-bit-per-net plane.
func planeBit(plane []uint64, pos int32) bool {
	return plane[pos>>6]>>uint(pos&63)&1 == 1
}

// setTrit writes one net immediately (staged inputs at cycle start, bus
// writes mid-cycle, the scalar engine's evaluation).
func (p *planes) setTrit(id netlist.NetID, t logic.Trit) {
	pos := p.plan.Pos[id]
	w, b := pos>>6, uint(pos&63)
	nv, nk := logic.PlaneFromTrit(t)
	mask := uint64(1) << b
	p.curV[w] = p.curV[w]&^mask | nv<<b
	p.curK[w] = p.curK[w]&^mask | nk<<b
}

// setActive writes one net's activity flag.
func (p *planes) setActive(id netlist.NetID, on bool) {
	pos := p.plan.Pos[id]
	w, mask := pos>>6, uint64(1)<<uint(pos&63)
	if on {
		p.act[w] |= mask
	} else {
		p.act[w] &^= mask
	}
}

// Val returns the settled value of a net in the current cycle.
func (s *Simulator) Val(id netlist.NetID) logic.Trit { return s.val(id) }

// PrevVal returns the settled value of a net in the previous cycle.
func (s *Simulator) PrevVal(id netlist.NetID) logic.Trit { return s.prevVal(id) }

// Active reports whether the net was active in the current cycle.
func (s *Simulator) Active(id netlist.NetID) bool { return s.isActive(id) }

// SetNet drives a primary-input net. Outside Step the assignment is
// staged and takes effect at the start of the next cycle; a Bus calling
// SetNet from Tick drives the net immediately (read data for the cycle in
// flight). SetNet panics when applied to a driven net, which would
// silently desynchronize simulation from the netlist.
func (s *Simulator) SetNet(id netlist.NetID, v logic.Trit) {
	if !s.n.IsInput(id) {
		panic(fmt.Sprintf("gsim: SetNet on non-input net %s", s.n.NetName(id)))
	}
	if s.inStep {
		s.setTrit(id, v)
		return
	}
	s.staged = append(s.staged, stagedInput{id, v})
}

// SetPort drives a named input port with a word (bit i of w drives net i
// of the port).
func (s *Simulator) SetPort(name string, w logic.Word) {
	nets := s.n.Port(name)
	if nets == nil {
		panic("gsim: unknown port " + name)
	}
	if len(nets) != len(w) {
		panic(fmt.Sprintf("gsim: port %s width %d, word width %d", name, len(nets), len(w)))
	}
	for i, id := range nets {
		s.SetNet(id, w[i])
	}
}

// SetPortUint drives a named input port with a concrete value.
func (s *Simulator) SetPortUint(name string, v uint64) {
	nets := s.n.Port(name)
	if nets == nil {
		panic("gsim: unknown port " + name)
	}
	s.SetPort(name, logic.FromUint(v, len(nets)))
}

// Port reads the current value of a named port as a word.
func (s *Simulator) Port(name string) logic.Word {
	nets := s.n.Port(name)
	if nets == nil {
		panic("gsim: unknown port " + name)
	}
	w := make(logic.Word, len(nets))
	for i, id := range nets {
		w[i] = s.Val(id)
	}
	return w
}

// PortUint reads a named port as a concrete value; ok is false if any bit
// is X. Unlike Port, it does not allocate — bus models and power sinks
// call it every cycle.
func (s *Simulator) PortUint(name string) (uint64, bool) {
	nets := s.n.Port(name)
	if nets == nil {
		panic("gsim: unknown port " + name)
	}
	var v uint64
	for i, id := range nets {
		t := s.Val(id)
		if t == logic.X {
			return 0, false
		}
		v |= uint64(t) << uint(i)
	}
	return v, true
}

// Step advances simulation by one clock cycle.
func (s *Simulator) Step() {
	copy(s.prevV, s.curV)
	copy(s.prevK, s.curK)
	s.inStep = true

	// 0. Staged input assignments become the new cycle's input values.
	for _, si := range s.staged {
		s.setTrit(si.id, si.v)
	}
	s.staged = s.staged[:0]

	if s.pk != nil {
		s.stepPacked()
	} else {
		s.stepScalar()
	}
	s.inStep = false
	s.cycle++
	for _, h := range s.hooks {
		h(s.cycle, s)
	}
}

// Run advances n cycles.
func (s *Simulator) Run(n int) {
	for i := 0; i < n; i++ {
		s.Step()
	}
}

// Snapshot is a restorable copy of simulator state (net values only; bus
// state is snapshotted by the system owning the bus). Both engines keep
// net state in the same planes, so a snapshot taken on either engine
// restores on either.
type Snapshot struct {
	// PlaneV/PlaneK and PrevPlaneV/PrevPlaneK are the current and
	// previous cycle's value/known planes.
	PlaneV, PlaneK         []uint64
	PrevPlaneV, PrevPlaneK []uint64
	Staged                 []stagedInput
	Cycle                  uint64
}

// Snapshot captures the current simulator state, including any staged
// input assignments not yet consumed by Step.
func (s *Simulator) Snapshot() *Snapshot {
	sn := &Snapshot{}
	s.SnapshotInto(sn)
	return sn
}

// SnapshotInto captures the current state into sn, reusing its buffers —
// the allocation-free form used by the symbolic engine's per-cycle
// rolling snapshot.
func (s *Simulator) SnapshotInto(sn *Snapshot) {
	sn.PlaneV = append(sn.PlaneV[:0], s.curV...)
	sn.PlaneK = append(sn.PlaneK[:0], s.curK...)
	sn.PrevPlaneV = append(sn.PrevPlaneV[:0], s.prevV...)
	sn.PrevPlaneK = append(sn.PrevPlaneK[:0], s.prevK...)
	sn.Staged = append(sn.Staged[:0], s.staged...)
	sn.Cycle = s.cycle
}

// CloneInto deep-copies sn into dst, reusing dst's buffers — used by the
// symbolic engine to retain fork snapshots from a recycled pool instead
// of allocating fresh state per fork.
func (sn *Snapshot) CloneInto(dst *Snapshot) {
	dst.PlaneV = append(dst.PlaneV[:0], sn.PlaneV...)
	dst.PlaneK = append(dst.PlaneK[:0], sn.PlaneK...)
	dst.PrevPlaneV = append(dst.PrevPlaneV[:0], sn.PrevPlaneV...)
	dst.PrevPlaneK = append(dst.PrevPlaneK[:0], sn.PrevPlaneK...)
	dst.Staged = append(dst.Staged[:0], sn.Staged...)
	dst.Cycle = sn.Cycle
}

// Clone returns an independent deep copy of sn.
func (sn *Snapshot) Clone() *Snapshot {
	c := &Snapshot{}
	sn.CloneInto(c)
	return c
}

// StagedInputRec is the exported form of one staged input assignment.
// Snapshot.Staged's entry type has unexported fields, so serializers (the
// exploration checkpoint journal) round-trip staged inputs through these
// records instead.
type StagedInputRec struct {
	ID netlist.NetID
	V  logic.Trit
}

// StagedRecs appends the snapshot's staged input assignments to dst as
// exported records, in application order, and returns the extended slice.
func (sn *Snapshot) StagedRecs(dst []StagedInputRec) []StagedInputRec {
	for _, st := range sn.Staged {
		dst = append(dst, StagedInputRec{ID: st.id, V: st.v})
	}
	return dst
}

// SetStagedRecs replaces the snapshot's staged input assignments.
func (sn *Snapshot) SetStagedRecs(recs []StagedInputRec) {
	sn.Staged = sn.Staged[:0]
	for _, r := range recs {
		sn.Staged = append(sn.Staged, stagedInput{id: r.ID, v: r.V})
	}
}

// Restore rewinds the simulator to a snapshot taken on either engine.
func (s *Simulator) Restore(sn *Snapshot) {
	copy(s.curV, sn.PlaneV)
	copy(s.curK, sn.PlaneK)
	copy(s.prevV, sn.PrevPlaneV)
	copy(s.prevK, sn.PrevPlaneK)
	clear(s.act)
	if s.pk != nil {
		s.pk.boundValid = false
	}
	s.staged = append(s.staged[:0], sn.Staged...)
	s.cycle = sn.Cycle
}

// ActiveCells appends to dst the IDs of cells whose outputs are active in
// the current cycle and returns the extended slice.
func (s *Simulator) ActiveCells(dst []netlist.CellID) []netlist.CellID {
	s.ForEachActiveCell(func(ci netlist.CellID) {
		dst = append(dst, ci)
	})
	return dst
}

// ForEachActiveCell calls f for every cell whose output is active in the
// current cycle. It scans the activity plane's set bits — O(active)
// rather than O(cells) — which is what keeps the streaming power sink
// off the all-cells path. Cells come in ascending plane position on
// either engine, so order-sensitive consumers (the power sink's
// per-module float accumulation) are engine-independent.
func (s *Simulator) ForEachActiveCell(f func(netlist.CellID)) {
	cells := s.plan.CellOfPos
	for w, a := range s.act {
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

// NewActiveAccumulator returns a zeroed union-activity accumulator for
// use with AccumulateNewActive. Treat it as opaque and per-Simulator.
func (s *Simulator) NewActiveAccumulator() []uint64 {
	return make([]uint64, len(s.act))
}

// AccumulateNewActive ORs this cycle's activity into acc and calls f
// exactly once per cell the first cycle it turns active — the running
// "potentially toggled" union of the paper's Figures 1.5/3.4. The OR is
// word-parallel and per-cell work happens only on first activation, so
// a whole run costs O(distinct active cells) beyond the word ops.
func (s *Simulator) AccumulateNewActive(acc []uint64, f func(netlist.CellID)) {
	cells := s.plan.CellOfPos
	for w, a := range s.act {
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

// BoundEnergyFJ returns the cycle's maximum dynamic energy in
// femtojoules under the streaming Algorithm 2 rule: gates with known
// values contribute their actual transition energy, active X-involved
// gates the worst transition consistent with their known endpoint, and
// temporally constant X gates nothing; every flip-flop's clock pin
// dissipates unconditionally. This is the engine-accelerated form of
// power.CycleBoundFJ's sum (without the per-module split) — on the
// packed engine, known transitions are popcounts per same-kind batch.
//
// Both engines produce bit-identical sums: the scalar path walks the
// same packed plan, counts each 64-lane chunk's transitions as
// integers, and multiplies once per class in the packed engine's exact
// association order (see chunkBoundFJ). Sealed reports must not depend
// on which engine produced them.
func (s *Simulator) BoundEnergyFJ() float64 {
	if s.pk != nil {
		return s.pk.boundEnergyFJ(s)
	}
	plan := s.plan
	e := s.clkTotalFJ
	for bi := range plan.Seq {
		e += s.scalarBatchBoundFJ(&plan.Seq[bi])
	}
	for li := range plan.Levels {
		lv := &plan.Levels[li]
		for bi := range lv.Batches {
			e += s.scalarBatchBoundFJ(&lv.Batches[bi])
		}
	}
	return e
}

// scalarBatchBoundFJ is the scalar engine's per-batch bound: the
// per-cell rule of power's cellBoundFJ, accumulated as per-chunk
// integer counts so the float association matches chunkBoundFJ
// bit-for-bit.
func (s *Simulator) scalarBatchBoundFJ(b *netlist.PackedBatch) float64 {
	rise, fall, maxE := s.riseFJ[b.Kind], s.fallFJ[b.Kind], s.maxFJ[b.Kind]
	e := 0.0
	lanes := len(b.Cells)
	for lane0 := 0; lane0 < lanes; lane0 += 64 {
		n := min(64, lanes-lane0)
		var nRise, nFall, nMax, nXRise, nXFall int
		for i := 0; i < n; i++ {
			out := s.n.Cell(b.Cells[lane0+i]).Out
			prev, cur := s.prevVal(out), s.val(out)
			switch {
			case prev.Known() && cur.Known():
				if prev != cur {
					if cur == logic.H {
						nRise++
					} else {
						nFall++
					}
				}
			case !s.isActive(out):
				// Temporally constant unknown: cannot toggle.
			case prev == logic.X && cur == logic.X:
				nMax++
			case cur == logic.X:
				if prev == logic.L {
					nXRise++
				} else {
					nXFall++
				}
			default:
				if cur == logic.H {
					nXRise++
				} else {
					nXFall++
				}
			}
		}
		ce := 0.0
		ce += float64(nRise) * rise
		ce += float64(nFall) * fall
		ce += float64(nMax) * maxE
		ce += float64(nXRise) * rise
		ce += float64(nXFall) * fall
		e += ce
	}
	return e
}

// StateHash returns a hash of all flip-flop values — the processor-state
// component of Algorithm 1's "seen this state at this branch before"
// check. Memory contents are hashed by the system layer. Both engines
// produce identical hashes for identical symbolic states.
func (s *Simulator) StateHash() uint64 {
	h := uint64(1469598103934665603) // FNV-64 offset basis
	for _, ci := range s.seq {
		h ^= uint64(s.Val(s.n.Cell(ci).Out))
		h *= 1099511628211
	}
	return h
}

// StateHash2 is an independent second hash over the same flip-flop
// walk, with a different basis and multiplier, forming the high word of
// the exploration's 128-bit merge key. Two states must collide in both
// hashes (plus the memory and bus components) to be merged wrongly —
// see DESIGN.md "Merge keys". A second multiplier (not merely a second
// basis) matters: FNV with the same prime collides identically for
// equal-length inputs whenever the first hash does.
func (s *Simulator) StateHash2() uint64 {
	h := uint64(0x9E3779B97F4A7C15)
	for _, ci := range s.seq {
		h ^= uint64(s.Val(s.n.Cell(ci).Out))
		h *= 0x106689D45497DE35
	}
	return h
}

// EnableMemo turns on whole-step result memoization (stepmemo.go) with
// the given table byte budget (<= 0 selects the default). It reports
// false on the scalar engine: the oracle evaluates every cycle, so that
// nothing it reports was replayed rather than computed. Memoization
// never changes simulation results — only whether a cycle phase is
// evaluated or replayed — so it is safe to enable on any packed
// simulator.
func (s *Simulator) EnableMemo(maxBytes int) bool {
	if s.pk == nil {
		return false
	}
	if maxBytes <= 0 {
		maxBytes = defaultStepMemoBytes
	}
	s.pk.stepMemo = newStepTable(maxBytes)
	return true
}

// MemoStats returns the cumulative memoization hit/miss counters. Safe
// to call from any goroutine.
func (s *Simulator) MemoStats() (hits, misses int64) {
	return s.memoHits.Load(), s.memoMisses.Load()
}

// DynamicEnergyFJ returns the concrete dynamic energy, in femtojoules,
// dissipated by transitions in the current cycle: the sum of per-cell
// transition energies (X-involved transitions contribute nothing here;
// bounding their contribution is the power package's job) plus the
// clock-pin energy of every flip-flop.
func (s *Simulator) DynamicEnergyFJ() float64 {
	e := 0.0
	for ci := 0; ci < s.n.NumCells(); ci++ {
		c := s.n.Cell(netlist.CellID(ci))
		e += s.lib.TransitionEnergy(c.Kind, s.PrevVal(c.Out), s.Val(c.Out))
		e += s.lib.Params(c.Kind).EnergyClk
	}
	return e
}
