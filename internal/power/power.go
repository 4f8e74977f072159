// Package power implements the paper's input-independent peak power
// computation (Algorithm 2) and the supporting activity-based power
// analysis: per-cycle power bounds over three-valued activity, per-module
// breakdowns, cycle-of-interest (COI) attribution, and the literal
// even/odd VCD construction.
//
// The streaming form used during symbolic exploration computes, for every
// cycle, the maximum power consistent with the cycle's activity
// annotation: gates with known values contribute their actual transition
// energy; gates marked active whose values involve X contribute the
// worst-case transition consistent with the known endpoint (both-X gates
// contribute the standard-cell library's maximum-power transition —
// Algorithm 2's maxTransition lookup). Gates holding a temporally
// constant X (not marked active) contribute nothing: that is the
// tightness the activity analysis buys.
//
// The streaming Sink rides the gate engine's fast paths rather than
// walking every cell per cycle: the per-cycle bound comes from
// gsim.Simulator.BoundEnergyFJ (word-parallel popcounts on the packed
// engine), the potentially-toggled union from AccumulateNewActive
// (per-cell work only on first activation), and peak records — with
// their per-module split — materialize only for cycles that actually
// enter the top-k list, whose head is the peak. The package's tests hold
// the fast path to an all-cells reference sum of cellBoundFJ.
//
// The literal Algorithm 2 — materialize an even-maximizing and an
// odd-maximizing VCD, run power analysis on each, interleave — is
// implemented in algorithm2.go over captured windows; a property test
// asserts it agrees with the streaming form cycle for cycle.
package power

import (
	"math/bits"

	"repro/internal/cell"
	"repro/internal/gsim"
	"repro/internal/isa"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/ulp430"
)

// Model is an operating point for power analysis.
type Model struct {
	// Lib is the characterized cell library.
	Lib *cell.Library
	// ClockHz is the clock frequency.
	ClockHz float64
}

// PowerMW converts a per-cycle energy in femtojoules to milliwatts at the
// model's clock.
func (m Model) PowerMW(energyFJ float64) float64 {
	return energyFJ * m.ClockHz * 1e-12
}

// EnergyJ converts a per-cycle energy in femtojoules to joules.
func (m Model) EnergyJ(energyFJ float64) float64 { return energyFJ * 1e-15 }

// LeakageMW returns the design's total leakage power in milliwatts.
func (m Model) LeakageMW(nl *netlist.Netlist) float64 {
	total := 0.0
	for ci := 0; ci < nl.NumCells(); ci++ {
		total += m.Lib.Params(nl.Cell(netlist.CellID(ci)).Kind).LeakageNW
	}
	return total * 1e-6
}

// cellBoundFJ returns the maximum energy cell kind k can dissipate in a
// cycle with previous/current output values prev/cur and activity flag
// act (excluding the clock pin).
func cellBoundFJ(lib *cell.Library, k cell.Kind, prev, cur logic.Trit, act bool) float64 {
	if prev.Known() && cur.Known() {
		if prev != cur {
			return lib.TransitionEnergy(k, prev, cur)
		}
		return 0
	}
	if !act {
		return 0 // temporally constant unknown: cannot toggle
	}
	switch {
	case prev == logic.X && cur == logic.X:
		_, _, e := lib.MaxTransition(k)
		return e
	case cur == logic.X:
		// Assume it left the known previous value.
		if prev == logic.L {
			return lib.Params(k).EnergyRise
		}
		return lib.Params(k).EnergyFall
	default: // prev == X, cur known
		if cur == logic.H {
			return lib.Params(k).EnergyRise
		}
		return lib.Params(k).EnergyFall
	}
}

// Peak records one cycle of interest: a local power maximum with its
// microarchitectural attribution (Figure 3.6).
type Peak struct {
	// PowerMW is the bounded power of the cycle.
	PowerMW float64
	// PathPos is the cycle's position along its exploration path.
	PathPos int
	// FetchAddr is the address of the instruction in flight; PrevFetch
	// the one before it (the shallow "pipeline" of the multi-cycle core).
	FetchAddr, PrevFetch uint16
	// State is the controller state name at the peak.
	State string
	// InISR marks a cycle spent in interrupt context: the IRQ entry
	// sequence, the handler body, or the RETI unwind.
	InISR bool
	// ByModuleMW is the per-module power split (indexed like
	// Netlist.Modules()).
	ByModuleMW []float64
	// ActiveCells is the set of cells active in the peak cycle (recorded
	// for the head of the COI list, the global peak, only).
	ActiveCells []netlist.CellID
}

// Sink is the symx.Sink that performs streaming peak-power analysis
// during symbolic exploration. It also serves concrete runs (no X values
// present reduces the bound to exact measured power).
type Sink struct {
	// Trace is the per-cycle power bound (mW, leakage included) along the
	// current exploration path.
	Trace []float64
	// WarmupCycles suppresses peak/COI/activity-union tracking for the
	// first cycles of the run: the reset transient and the common
	// watchdog/stack prologue are identical for every application, and
	// the paper's measurements characterize steady-state application
	// execution. The power trace itself still records every cycle.
	WarmupCycles int
	// UnionActive marks cells active in at least one explored cycle —
	// the "potentially toggled" set of Figures 1.5 and 3.4.
	UnionActive []bool
	// TopK holds the highest-power cycles with distinct fetch addresses
	// (COI candidates), sorted descending, over the cycles of the current
	// fold scope: the whole run unless the explorer ends scopes (see
	// NewSegment), less the cycles below the shared TopK floor. It holds
	// up to max(k, 1) entries, so a sink asked for no COIs still keeps
	// the peak. Only the head carries ActiveCells.
	TopK []Peak
	// Best is the head of TopK: the first cycle of the scope attaining
	// its maximum power.
	Best Peak
	// ISRPeakMW is the peak power bound restricted to cycles spent in
	// interrupt context (0 when no interrupt was ever entered). It
	// accumulates over every explored path.
	ISRPeakMW float64

	model   Model
	nl      *netlist.Netlist
	img     *isa.Image
	k       int
	modBuf  []float64
	leakMW  float64
	fetches []fetchCtx

	// actAccum is the engine's activity accumulator of the current task
	// (the whole run when no task begins); unionVisit marks a cell in
	// UnionActive the first cycle of the task it turns active.
	sim        *gsim.Simulator
	actAccum   gsim.ActiveAccumulator
	unionVisit func(netlist.CellID)

	// clkModFJ is the per-module clock-pin energy constant; splitVisit
	// adds the active cells' bound on top when a peak materializes (an
	// O(active) pass — the same decomposition as the engine's
	// BoundEnergyFJ, since inactive cells bound to zero).
	clkModFJ   []float64
	splitVisit func(netlist.CellID)
	curSim     *gsim.Simulator

	// state and mab are the one-hot controller state and the memory
	// address ports; lastStIdx is the cycle's state index, -1 if none.
	state, mab gsim.WordPort
	lastStIdx  int

	// isrDepth tracks interrupt nesting along the current path, parallel
	// to Trace (rewound with it); curISR flags the cycle being recorded.
	// inFetch is set when the cycle's StFetch state bit is known 1.
	isrDepth []int8
	curISR   bool
	inFetch  bool

	// Task protocol (symx.WorkerSink): Trace/fetches/isrDepth are
	// task-local (positions stay absolute via base), the path context at
	// a task's start comes from a TaskSeed, and stream counts the task's
	// observations. A fold scope ends where the explorer says
	// (NewSegment); its records are flushed as candidates tagged with
	// their (task, stream) coordinates and folded canonically by
	// MergeParallelReplay (see parallel.go). topkStream (by fetch
	// address: TopK holds one entry per address) records the stream
	// index of each materialized record.
	shared     *Shared
	base       int
	task       int
	stream     int
	seed       TaskSeed
	topkStream map[uint16]int
	topkCands  []PeakCand

	// Per-task records for MarshalTask: the candidate slice is sliced at
	// task boundaries, and the ISR peak and activity (actAccum) restart
	// per task, so a resumed run can replay exactly one task's
	// contribution without its worker's history.
	taskTopk0 int
	taskISR   float64
	// cellBits is MarshalTask's cell-ID bitset, empty between calls;
	// cellVisit sets a cell in it. The first call makes both.
	cellBits  []uint64
	cellVisit func(netlist.CellID)
	cellBuf   []int32
}

type fetchCtx struct {
	fetch, prev uint16
}

// DefaultWarmup covers the boot sequence and the shared watchdog/stack
// prologue (see Sink.WarmupCycles).
const DefaultWarmup = 12

// NewSink creates a power sink for the given system/model; k bounds the
// COI list length (0: the peak alone).
func NewSink(sys *ulp430.System, model Model, img *isa.Image, k int) *Sink {
	nl := sys.Sim.Netlist()
	s := &Sink{
		WarmupCycles: DefaultWarmup,
		model:        model,
		nl:           nl,
		img:          img,
		k:            k,
		UnionActive:  make([]bool, nl.NumCells()),
		modBuf:       make([]float64, len(nl.Modules())),
		leakMW:       model.LeakageMW(nl),
		sim:          sys.Sim,
		actAccum:     sys.Sim.NewActiveAccumulator(),
		topkStream:   make(map[uint16]int),
		clkModFJ:     make([]float64, len(nl.Modules())),
		state:        gsim.CompilePort(nl, nl.Port("state")),
		mab:          gsim.CompilePort(nl, nl.Port("mab")),
	}
	for ci := 0; ci < nl.NumCells(); ci++ {
		s.clkModFJ[nl.ModuleIndex(netlist.CellID(ci))] += model.Lib.Params(nl.Cell(netlist.CellID(ci)).Kind).EnergyClk
	}
	// One closure each for the whole run: the accumulate path is
	// per-cycle hot and must not allocate.
	s.unionVisit = func(ci netlist.CellID) { s.UnionActive[ci] = true }
	s.splitVisit = func(ci netlist.CellID) {
		c := s.nl.Cell(ci)
		s.modBuf[s.nl.ModuleIndex(ci)] += cellBoundFJ(
			s.model.Lib, c.Kind, s.curSim.PrevVal(c.Out), s.curSim.Val(c.Out), true)
	}
	return s
}

// Modules returns the module names indexing Peak.ByModuleMW.
func (s *Sink) Modules() []string { return s.nl.Modules() }

// OnCycle implements symx.Sink. The per-cycle bound comes from the
// engine's BoundEnergyFJ fast path (word-parallel popcounts on the
// packed engine); the O(cells) per-module split is deferred to makePeak
// and computed only when a cycle actually enters the peak records.
func (s *Sink) OnCycle(sys *ulp430.System) {
	sim := sys.Sim
	s.refreshState(sim)
	pos := s.base + len(s.Trace)
	s.stream++

	p := s.model.PowerMW(sim.BoundEnergyFJ()) + s.leakMW
	s.Trace = append(s.Trace, p)

	// Track the instruction in flight.
	fc := fetchCtx{fetch: s.seed.Fetch, prev: s.seed.Prev}
	if n := len(s.fetches); n > 0 {
		fc = s.fetches[n-1]
	}
	if s.inFetch {
		if a, ok := s.mab.Uint(sim); ok {
			fc.prev = fc.fetch
			fc.fetch = uint16(a)
		}
	}
	s.fetches = append(s.fetches, fc)

	// ISR attribution: the entry sequence (IRQ1..IRQ3) flags the cycle
	// directly; IRQ3 raises the nesting depth for the handler body, and
	// RETI2 (the final unwind cycle, still in interrupt context) lowers
	// it back.
	depth := s.seed.Depth
	if n := len(s.isrDepth); n > 0 {
		depth = s.isrDepth[n-1]
	}
	inISR := depth > 0 ||
		s.lastStIdx == ulp430.StIrq1 || s.lastStIdx == ulp430.StIrq2 || s.lastStIdx == ulp430.StIrq3
	if s.lastStIdx == ulp430.StIrq3 {
		depth++
	}
	if s.lastStIdx == ulp430.StReti2 && depth > 0 {
		depth--
	}
	s.isrDepth = append(s.isrDepth, depth)
	s.curISR = inISR

	if pos < s.WarmupCycles {
		return
	}
	if inISR && p > s.ISRPeakMW {
		s.ISRPeakMW = p
	}
	if inISR && p > s.taskISR {
		s.taskISR = p
	}

	// Union of active cells: word-ORed accumulator, per-cell work only
	// on a cell's first activation in the task.
	sim.AccumulateNewActive(&s.actAccum, s.unionVisit)
	s.observe(p, fc.fetch, func(cells bool) Peak { return s.makePeak(p, pos, fc, cells, sim) })
}

// observe is the peak fold, the only one: insertTopK over the scope's
// list, whose head is the scope's peak. mk materializes the observed
// cycle (with its active-cell list when cells is set) and runs only when
// the cycle enters the list; the record's stream index is kept with it,
// and its power is noted on the shared floors. A cycle entering at the
// head gets its cells only at or above the shared head floor: the floor
// never exceeds the run's peak, so a cycle below it cannot be the peak.
// A cycle strictly below the shared TopK floor skips the list: k
// distinct addresses already reach the floor, so it cannot be its
// address's entry in the final list (see parallel.go).
func (s *Sink) observe(p float64, fetch uint16, mk func(cells bool) Peak) {
	if s.shared != nil && p < s.shared.topkFloor() {
		return
	}
	at := s.stream - 1
	s.TopK = insertTopK(s.TopK, s.k, p, fetch, func(head bool) Peak {
		pk := mk(head && (s.shared == nil || p >= s.shared.headFloor()))
		if head {
			s.Best = pk
		}
		s.topkStream[fetch] = at
		if s.shared != nil {
			s.shared.noteTopK(s.k, fetch, p)
		}
		return pk
	})
}

// makePeak materializes a cycle of interest, including the per-module
// power split (an O(active-cells) pass — peaks materialize rarely, not
// per cycle, and the split skips the all-cells walk entirely).
func (s *Sink) makePeak(p float64, pos int, fc fetchCtx, withCells bool, sim *gsim.Simulator) Peak {
	copy(s.modBuf, s.clkModFJ)
	s.curSim = sim
	sim.ForEachActiveCell(s.splitVisit)
	s.curSim = nil
	pk := Peak{
		PowerMW:    p,
		PathPos:    pos,
		FetchAddr:  fc.fetch,
		PrevFetch:  fc.prev,
		State:      s.stateName(),
		InISR:      s.curISR,
		ByModuleMW: make([]float64, len(s.modBuf)),
	}
	for i, e := range s.modBuf {
		pk.ByModuleMW[i] = s.model.PowerMW(e)
	}
	if withCells {
		pk.ActiveCells = sim.ActiveCells(nil)
	}
	return pk
}

func (s *Sink) stateName() string {
	if s.lastStIdx < 0 {
		return "?"
	}
	return ulp430.StateName(s.lastStIdx)
}

// refreshState derives the controller state from the one-hot state
// port, read as one word: the lowest bit that is known and 1. Called
// once per OnCycle before peaks are recorded.
func (s *Sink) refreshState(sim *gsim.Simulator) {
	v, k := s.state.Planes(sim)
	hot := v & k
	s.inFetch = hot>>ulp430.StFetch&1 == 1
	s.lastStIdx = -1
	if hot != 0 {
		s.lastStIdx = bits.TrailingZeros64(hot)
	}
}

// insertTopK is the top-k insertion step, shared verbatim by the scope
// fold and MergeParallelReplay's canonical replay — one algorithm, so the
// two paths cannot drift apart. It keeps at most one entry per fetch
// address and at most max(k, 1) entries, sorted descending,
// materializing (mk) only when the cycle actually enters the list; head
// tells mk that the cycle enters at the head. An entry moves up only on
// strictly greater power, so the head is the first cycle attaining the
// maximum. Only the head keeps its cell list: a displaced head drops it.
func insertTopK(list []Peak, k int, p float64, fetch uint16, mk func(head bool) Peak) []Peak {
	i := 0
	for i < len(list) && list[i].FetchAddr != fetch {
		i++
	}
	switch {
	case i < len(list):
		if p <= list[i].PowerMW {
			return list
		}
	case len(list) < max(k, 1):
		list = append(list, Peak{})
	case p > list[i-1].PowerMW:
		i--
	default:
		return list
	}
	head := i == 0 || p > list[0].PowerMW
	list[i] = mk(head)
	bubbleTopK(list, i)
	if head && len(list) > 1 {
		list[1].ActiveCells = nil
	}
	return list
}

func bubbleTopK(list []Peak, i int) {
	for i > 0 && list[i].PowerMW > list[i-1].PowerMW {
		list[i], list[i-1] = list[i-1], list[i]
		i--
	}
}

// Pos implements symx.Sink. Positions are absolute path positions (base
// is the current task's first position, 0 when no task begins).
func (s *Sink) Pos() int { return s.base + len(s.Trace) }

// Rewind implements symx.Sink.
func (s *Sink) Rewind(pos int) {
	n := pos - s.base
	s.Trace = s.Trace[:n]
	s.fetches = s.fetches[:n]
	s.isrDepth = s.isrDepth[:n]
}

// Segment implements symx.Sink: the payload is the per-cycle power bound
// (mW) of the segment.
func (s *Sink) Segment(from int) interface{} {
	return append([]float64(nil), s.Trace[from-s.base:]...)
}

// PeakMW returns the global peak power bound.
func (s *Sink) PeakMW() float64 { return s.Best.PowerMW }

// Instruction renders the mnemonic of a peak's in-flight instruction.
func (s *Sink) Instruction(pk Peak) string {
	if s.img == nil {
		return "?"
	}
	return isa.Mnemonic(s.img, pk.FetchAddr)
}
