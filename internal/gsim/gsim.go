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
// With the step memo on (EnableMemo, packed engine), phases 3 and 4 of
// a state seen before are replayed from a table, keyed and verified on
// the planes phases 1 and 2 produced; in a replayed orbit phase 1 is
// also replayed, from the flip-flop words the chained entry cached the
// first time it was followed (stepmemo.go).
//
// Step latches by rotating plane buffers rather than copying them, so
// the planes a Step started from survive it: Mark and Rewind return to
// the state before the last Step without a snapshot, exactly as Restore
// of one would.
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
// may read flip-flop outputs (registered outputs) and primary inputs
// with s.Val (or a WordPort) and must drive read-data primary inputs
// with s.SetNet (or WordPort.Drive). Every other net holds a stale
// value until settle writes it (see planes), so Tick must not read one.
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

	staged []StagedInput
	inStep bool

	cycle uint64
	hooks []CycleHook

	// The state Mark set, for Rewind: the staged inputs and cycle count
	// (the planes survive one Step in prevV/prevK and oldV/oldK).
	// marked is cleared by Restore.
	marked     bool
	markStaged []StagedInput
	markCycle  uint64

	// Memoization hit/miss totals, atomic so a progress reporter can
	// read them while another goroutine steps the simulator.
	memoHits, memoMisses atomic.Int64

	// Per-kind transition-energy tables and the design's total
	// clock-pin energy, precomputed from lib for BoundEnergyFJ.
	riseFJ, fallFJ, maxFJ [cell.NumKinds]float64
	clkTotalFJ            float64
}

// StagedInput is an input assignment made between Steps: net ID is
// driven to V at the start of the next cycle, after the previous
// cycle's values have been latched as "previous" (so input changes
// register as activity).
type StagedInput struct {
	ID netlist.NetID
	V  logic.Trit
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
//
// The latch rotates three value/known buffer pairs: the current planes
// become the previous ones, the previous ones the spare pair old, and
// the old pair is reused as the current one. Only the current words
// [0, srcHi), the primary inputs and the flip-flop region, are copied
// over: a step writes every later position (each gate's output) before
// it reads it, and the inputs carry over unless restaged. So within a
// step, before settle, the current words at or past srcHi are stale and
// nothing may read them; the previous planes hold their values. After
// a Step the old pair holds the previous planes the Step started from,
// which is what makes Rewind a rotation back.
type planes struct {
	plan *netlist.PackedPlan

	curV, curK   []uint64 // settled values of the current cycle
	prevV, prevK []uint64 // settled values of the previous cycle
	oldV, oldK   []uint64 // prevV/prevK before the last Step
	act          []uint64 // activity flags, one bit per net position

	// The flip-flop region, positions [InputBits, end of plan.Seq),
	// holds every flip-flop output and nothing else: the processor
	// state. It covers plane words [ffLo, ffLo+len(ffMask)); ffMask
	// selects its bits in each.
	ffLo   int
	ffMask []uint64

	// srcHi is the number of leading plane words holding the inputs and
	// the flip-flop region: the only words a step writes before settle.
	srcHi int
}

func newPlanes(plan *netlist.PackedPlan) planes {
	nw := plan.Words
	pl := planes{
		plan:  plan,
		curV:  make([]uint64, nw),
		curK:  make([]uint64, nw),
		prevV: make([]uint64, nw),
		prevK: make([]uint64, nw),
		oldV:  make([]uint64, nw),
		oldK:  make([]uint64, nw),
		act:   make([]uint64, nw),
	}
	lo, hi := plan.InputBits, plan.InputBits
	if seq := plan.Seq; len(seq) > 0 {
		last := &seq[len(seq)-1]
		hi = int(last.FirstPos) + len(last.Cells)
	}
	pl.ffLo, pl.srcHi = lo>>6, (hi+63)>>6
	if hi > lo {
		for w := pl.ffLo; w < pl.srcHi; w++ {
			a, b := max(lo, 64*w), min(hi, 64*w+64)
			pl.ffMask = append(pl.ffMask, laneMask(b-a)<<uint(a-64*w))
		}
	}
	return pl
}

// latch rotates the planes for a new cycle: the current planes become
// the previous ones, and the current words [0, srcHi) start as a copy
// of them.
func (s *Simulator) latch() {
	s.curV, s.prevV, s.oldV = s.oldV, s.curV, s.prevV
	s.curK, s.prevK, s.oldK = s.oldK, s.curK, s.prevK
	copy(s.curV[:s.srcHi], s.prevV)
	copy(s.curK[:s.srcHi], s.prevK)
	s.syncPlanes()
}

// syncPlanes refreshes the packed engine's aliasing copy of the planes
// after a rotation.
func (s *Simulator) syncPlanes() {
	if s.pk != nil {
		s.pk.planes = s.planes
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
	s.staged = append(s.staged, StagedInput{id, v})
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
// is X. Unlike Port, it does not allocate. It panics on a port wider
// than 64 bits (see CompilePort).
func (s *Simulator) PortUint(name string) (uint64, bool) {
	nets := s.n.Port(name)
	if nets == nil {
		panic("gsim: unknown port " + name)
	}
	p := CompilePort(s.n, nets)
	return p.Uint(s)
}

// WordPort is a port of at most 64 nets compiled against its netlist's
// plane layout, read and driven as one word per plane (bit i is
// nets[i]). Bus models and power sinks compile the ports they touch
// every cycle once. When the nets' positions are consecutive, a read is
// one extract per plane and a drive inside a step one masked store per
// plane; any other port goes net by net. A WordPort serves every
// simulator of the netlist it was compiled for.
type WordPort struct {
	nets  []netlist.NetID
	first int32 // nets[i] sits at plane position first+i; -1 if not consecutive
	input bool  // every net is a primary input, so Drive may write it
}

// CompilePort compiles nets of n (bit i from nets[i]) into a WordPort.
// It panics on more than 64 nets, which one word cannot hold.
func CompilePort(n *netlist.Netlist, nets []netlist.NetID) WordPort {
	if len(nets) > 64 {
		panic(fmt.Sprintf("gsim: port of %d nets is wider than a 64-bit word", len(nets)))
	}
	pos := n.Packed().Pos
	p := WordPort{nets: nets, first: -1, input: true}
	consecutive := len(nets) > 0
	for i, id := range nets {
		if i > 0 && pos[id] != pos[nets[i-1]]+1 {
			consecutive = false
		}
		p.input = p.input && n.IsInput(id)
	}
	if consecutive {
		p.first = pos[nets[0]]
	}
	return p
}

// Planes reads the port's value and known bits (bit i is nets[i]; an X
// bit is 0 in both, as in the planes).
func (p *WordPort) Planes(s *Simulator) (v, k uint64) {
	if p.first >= 0 {
		return extract(s.curV, p.first, len(p.nets)), extract(s.curK, p.first, len(p.nets))
	}
	for i, id := range p.nets {
		pos := s.plan.Pos[id]
		w, b := pos>>6, uint(pos&63)
		v |= s.curV[w] >> b & 1 << uint(i)
		k |= s.curK[w] >> b & 1 << uint(i)
	}
	return v, k
}

// Uint reads the port as a concrete value; ok is false if any bit is X.
func (p *WordPort) Uint(s *Simulator) (uint64, bool) {
	v, k := p.Planes(s)
	if k != laneMask(len(p.nets)) {
		return 0, false
	}
	return v, true
}

// Drive drives the port's input nets as SetNet drives each: bit i of v
// and k is nets[i]'s value and known bit (a bit with k clear is X).
// Outside Step every net is staged; from a Bus's Tick the port is
// written at once, one masked store per plane when it is consecutive.
// Drive panics on a port with a net that is not a primary input.
func (p *WordPort) Drive(s *Simulator, v, k uint64) {
	if !p.input {
		panic("gsim: Drive on a port with a non-input net")
	}
	v &= k
	if s.inStep && p.first >= 0 {
		s.store(p.first, len(p.nets), v, k)
		return
	}
	for i, id := range p.nets {
		t := logic.TritFromPlane(v, k, uint(i))
		if s.inStep {
			s.setTrit(id, t)
		} else {
			s.staged = append(s.staged, StagedInput{id, t})
		}
	}
}

// Step advances simulation by one clock cycle. The latch rotates the
// plane buffers (see planes), so the planes the Step started from
// survive until the next Step (see Rewind).
func (s *Simulator) Step() {
	s.latch()
	s.inStep = true

	// 0. Staged input assignments become the new cycle's input values.
	for _, si := range s.staged {
		s.setTrit(si.ID, si.V)
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
	Staged                 []StagedInput
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
// the allocation-free form behind the symbolic engine's pooled fork
// snapshots.
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

// Restore rewinds the simulator to a snapshot taken on either engine.
func (s *Simulator) Restore(sn *Snapshot) {
	copy(s.curV, sn.PlaneV)
	copy(s.curK, sn.PlaneK)
	copy(s.prevV, sn.PrevPlaneV)
	copy(s.prevK, sn.PrevPlaneK)
	s.resume(sn.Staged, sn.Cycle)
	s.marked = false
}

// resume ends Restore and Rewind once the planes are back: it clears
// the activity flags and what was derived from the planes left behind
// (the cached bound, the memo chain), and puts back the staged inputs
// and the cycle count.
func (s *Simulator) resume(staged []StagedInput, cycle uint64) {
	clear(s.act)
	if s.pk != nil {
		s.pk.boundValid = false
		s.pk.chain = nil
	}
	s.staged = append(s.staged[:0], staged...)
	s.cycle = cycle
}

// Mark records the current state as the one Rewind returns to: the
// one-cycle rewind of the symbolic engine, taken before every cycle
// instead of a snapshot. Only the staged inputs and the cycle count are
// copied; the planes survive one Step in the latch's buffers.
func (s *Simulator) Mark() {
	s.marked = true
	s.markStaged = append(s.markStaged[:0], s.staged...)
	s.markCycle = s.cycle
}

// Rewind returns the simulator to the state Mark recorded, exactly as
// Restore of a snapshot taken at the mark would: the planes, cleared
// activity flags (BoundEnergyFJ recomputes), the staged inputs and the
// cycle count. It rotates the plane buffers back, copying none: the
// previous planes become the current ones again and the old pair the
// previous ones. The mark stays set, so the same cycle may be stepped
// and rewound again. Rewind refuses, changing nothing, unless exactly
// one Step has run since the mark and no Restore since.
func (s *Simulator) Rewind() error {
	if !s.marked || s.cycle != s.markCycle+1 {
		return fmt.Errorf("gsim: Rewind at cycle %d needs exactly one Step since Mark", s.cycle)
	}
	s.curV, s.prevV, s.oldV = s.prevV, s.oldV, s.curV
	s.curK, s.prevK, s.oldK = s.prevK, s.oldK, s.curK
	s.syncPlanes()
	s.resume(s.markStaged, s.markCycle)
	return nil
}

// CheckSnapshot reports whether sn fits the simulator: four planes of
// its plane length and staged inputs that drive primary inputs with
// valid values. Restore trusts its snapshot; a decoder installing one
// from outside checks it first.
func (s *Simulator) CheckSnapshot(sn *Snapshot) error {
	nw := len(s.curV)
	for _, pl := range []struct {
		name  string
		words []uint64
	}{
		{"PlaneV", sn.PlaneV}, {"PlaneK", sn.PlaneK},
		{"PrevPlaneV", sn.PrevPlaneV}, {"PrevPlaneK", sn.PrevPlaneK},
	} {
		if len(pl.words) != nw {
			return fmt.Errorf("gsim: snapshot %s has %d words, want %d", pl.name, len(pl.words), nw)
		}
	}
	for _, st := range sn.Staged {
		if st.ID < 0 || int(st.ID) >= s.n.NumNets() || !s.n.IsInput(st.ID) {
			return fmt.Errorf("gsim: snapshot stages net %d, not a primary input", st.ID)
		}
		if st.V > logic.X {
			return fmt.Errorf("gsim: snapshot stages value %d on net %s", st.V, s.n.NetName(st.ID))
		}
	}
	return nil
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
func (s *Simulator) ForEachActiveCell(f func(netlist.CellID)) { s.forEachSet(s.act, f) }

// ActiveAccumulator is a running union of activity planes, filled by
// AccumulateNewActive. Its epoch names its contents: every accumulator
// and every Reset gets an epoch no other has had, and a step-memo entry
// records the last epoch its activity was folded into, so a replayed
// cycle whose activity the accumulator already holds is skipped without
// touching a word. The zero value is empty and belongs to no simulator;
// Reset keeps it so.
type ActiveAccumulator struct {
	words []uint64
	epoch uint64
}

// accEpochs issues accumulator epochs; 0 is never issued, so an entry
// that was never folded matches no accumulator.
var accEpochs atomic.Uint64

// Reset empties the accumulator and starts a new epoch.
func (a *ActiveAccumulator) Reset() {
	clear(a.words)
	a.epoch = accEpochs.Add(1)
}

// ForEachAccumulated calls f for every cell set in acc, in ascending
// plane position.
func (s *Simulator) ForEachAccumulated(acc *ActiveAccumulator, f func(netlist.CellID)) {
	s.forEachSet(acc.words, f)
}

// forEachSet calls f for every cell whose bit is set in plane, in
// ascending plane position.
func (s *Simulator) forEachSet(plane []uint64, f func(netlist.CellID)) {
	cells := s.plan.CellOfPos
	for w, a := range plane {
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

// NewActiveAccumulator returns an empty union-activity accumulator for
// use with AccumulateNewActive. Treat it as opaque and per-Simulator.
func (s *Simulator) NewActiveAccumulator() ActiveAccumulator {
	return ActiveAccumulator{words: make([]uint64, len(s.act)), epoch: accEpochs.Add(1)}
}

// AccumulateNewActive ORs this cycle's activity into acc and calls f
// exactly once per cell the first cycle it turns active — the running
// "potentially toggled" union of the paper's Figures 1.5/3.4. The OR is
// word-parallel and per-cell work happens only on first activation, so
// a whole run costs O(distinct active cells) beyond the word ops. A
// cycle replayed from a step-memo entry already folded into acc in its
// current epoch returns at once: the OR would change nothing.
func (s *Simulator) AccumulateNewActive(acc *ActiveAccumulator, f func(netlist.CellID)) {
	var e *stepEntry
	if s.pk != nil {
		if e = s.pk.chain; e != nil && e.folded == acc.epoch {
			return
		}
	}
	cells := s.plan.CellOfPos
	words := acc.words
	for w, a := range s.act {
		fresh := a &^ words[w]
		if fresh == 0 {
			continue
		}
		words[w] |= a
		base := w * 64
		for fresh != 0 {
			bit := bits.TrailingZeros64(fresh)
			fresh &^= 1 << uint(bit)
			if ci := cells[base+bit]; ci >= 0 {
				f(ci)
			}
		}
	}
	if e != nil {
		e.folded = acc.epoch
	}
}

// BoundEnergyFJ returns the cycle's maximum dynamic energy in
// femtojoules under the streaming Algorithm 2 rule: gates with known
// values contribute their actual transition energy, active X-involved
// gates the worst transition consistent with their known endpoint, and
// temporally constant X gates nothing; every flip-flop's clock pin
// dissipates unconditionally. This is the per-cell rule of power's
// cellBoundFJ summed over every cell, engine-accelerated — on the
// packed engine, known transitions are popcounts per same-kind batch;
// package power's tests hold it to the cell-by-cell sum.
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

// StateHash returns two independently mixed 64-bit hashes of the
// flip-flop values — the processor-state component of Algorithm 1's
// "seen this state at this branch before" check, the low and high words
// of the exploration's 128-bit merge key. Memory contents are hashed by
// the system layer. One pass reads each word of the flip-flop region,
// value then known plane, masked to the region's bits, and feeds both
// accumulators. The planes are canonical, so equal flip-flop values give
// equal words and equal hashes, on either engine.
//
// Each accumulator runs MurmurHash64A's word step with its own
// multiplier: the word is mixed (multiply, xorshift, multiply) before it
// is folded in, so that differences in a word's high bits cannot cancel
// across words as they would under a plain xor-multiply. Two states must
// collide in both words (plus the memory and bus components) to be
// merged wrongly — see DESIGN.md "Merge keys".
func (s *Simulator) StateHash() (lo, hi uint64) {
	lo, hi = 1469598103934665603, 0x9E3779B97F4A7C15
	v, k := s.curV[s.ffLo:], s.curK[s.ffLo:]
	for i, m := range s.ffMask {
		lo, hi = hashWord(lo, hi, v[i]&m)
		lo, hi = hashWord(lo, hi, k[i]&m)
	}
	return lo, hi
}

// hashWord folds w into both StateHash accumulators.
func hashWord(lo, hi, w uint64) (uint64, uint64) {
	const m1, m2 = 0xC6A4A7935BD1E995, 0x106689D45497DE35
	a := w * m1
	a = (a ^ a>>47) * m1
	b := w * m2
	b = (b ^ b>>47) * m2
	return (lo ^ a) * m1, (hi ^ b) * m2
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
	s.pk.chain = nil
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
