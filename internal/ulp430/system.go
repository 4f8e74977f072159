package ulp430

import (
	"fmt"

	"repro/internal/cell"
	"repro/internal/gsim"
	"repro/internal/isa"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/periph"
	"repro/internal/soc"
)

// memWord stores one 16-bit memory word in the three-valued domain as two
// bit-planes: bit i is X when xmask bit i is set, else val bit i.
type memWord struct {
	val   uint16
	xmask uint16
}

var allXWord = memWord{0, 0xFFFF}

// memWords is the memory size in words (the full 64 KB address space).
const memWords = 1 << 15

func wordFromLogic(w logic.Word) memWord {
	var m memWord
	for i, t := range w {
		switch t {
		case logic.H:
			m.val |= 1 << uint(i)
		case logic.X:
			m.xmask |= 1 << uint(i)
		}
	}
	return m
}

func (m memWord) toLogic(dst logic.Word) {
	for i := range dst {
		switch {
		case m.xmask>>uint(i)&1 == 1:
			dst[i] = logic.X
		case m.val>>uint(i)&1 == 1:
			dst[i] = logic.H
		default:
			dst[i] = logic.L
		}
	}
}

// InputMode selects how application inputs are materialized.
type InputMode int

const (
	// SymbolicInputs drives every input region word and P1IN read with X
	// — Algorithm 1's input-independent mode.
	SymbolicInputs InputMode = iota
	// ConcreteInputs fills input regions from a vector and P1IN from a
	// callback — the profiling ("input-based") mode.
	ConcreteInputs
)

// System couples the gate-level CPU to behavioral memory and exposes the
// simulation controls the analyses need: reset, stepping, halting,
// branch forcing, snapshot/restore (with an O(1)-per-cycle memory undo
// journal), and architectural state inspection.
type System struct {
	// Sim is the underlying gate-level simulator.
	Sim *gsim.Simulator

	img    *isa.Image
	mode   InputMode
	inputs []uint16 // the concrete input vector, copied at construction
	// PortIn supplies P1IN words in concrete mode; nil reads as zero.
	PortIn func() uint16

	mem     []memWord // memWords words
	journal []journalEntry

	// base is memory as loaded (see load), the reference a PortableState
	// diffs against; capMem is CapturePortableAt's reusable rewind
	// buffer. Both are built on first use, so a system that never
	// captures or restores a portable state never allocates them.
	base   []memWord
	capMem []memWord

	// bus is the optional interrupt-capable peripheral subsystem
	// (EnableInterrupts); nil leaves the device address space unmapped.
	bus *periph.Bus

	// Cached port nets.
	mabNets, mdbInNets, mdbOutNets  []netlist.NetID
	menNet, mwrNet, rstNet, haltNet netlist.NetID
	jumpExecNet, jumpTakenNet       netlist.NetID
	brForceEnNet, brForceValNet     netlist.NetID
	irqNet, irqWinNet               netlist.NetID
	errState                        error
	lastDin                         memWord
	lastLine                        logic.Trit // value currently driven on the irq net
	irqForce                        uint8      // one-shot Line override for the next Step
	scratch                         logic.Word
}

// irqForce values: no override / force "not arrived" / force "arrived".
const (
	forceNone uint8 = iota
	forceLow
	forceHigh
)

type journalEntry struct {
	idx int32
	old memWord
}

// NewSystem builds (or reuses) a CPU netlist and loads the image. Pass a
// prebuilt netlist to share it across systems (it is read-only during
// simulation); pass nil to build a fresh one. The simulator uses the
// default (packed) gate engine; NewSystemEngine selects explicitly.
func NewSystem(n *netlist.Netlist, lib *cell.Library, img *isa.Image, mode InputMode, inputs []uint16) (*System, error) {
	return NewSystemEngine(gsim.EnginePacked, n, lib, img, mode, inputs)
}

// NewSystemEngine is NewSystem with an explicit gate-engine choice;
// gsim.EngineScalar selects the reference oracle used for differential
// testing.
func NewSystemEngine(engine gsim.Engine, n *netlist.Netlist, lib *cell.Library, img *isa.Image, mode InputMode, inputs []uint16) (*System, error) {
	if n == nil {
		var err error
		n, err = BuildCPU()
		if err != nil {
			return nil, err
		}
	}
	s := &System{
		img:     img,
		mode:    mode,
		inputs:  append([]uint16(nil), inputs...),
		mem:     make([]memWord, memWords),
		scratch: make(logic.Word, 16),
	}
	if err := s.load(s.mem); err != nil {
		return nil, err
	}
	s.Sim = gsim.NewEngine(n, lib, s, engine)
	s.mabNets = n.Port("mab")
	s.mdbInNets = n.Port("mdb_in")
	s.mdbOutNets = n.Port("mdb_out")
	s.menNet = n.Port("men")[0]
	s.mwrNet = n.Port("mwr")[0]
	s.rstNet = n.Port("rst")[0]
	s.haltNet = n.Port("halt")[0]
	s.jumpExecNet = n.Port("jump_exec")[0]
	s.jumpTakenNet = n.Port("jump_taken")[0]
	s.brForceEnNet = n.Port("br_force_en")[0]
	s.brForceValNet = n.Port("br_force_val")[0]
	s.irqNet = n.Port("irq")[0]
	s.irqWinNet = n.Port("irq_win")[0]

	return s, nil
}

// load writes memory as loaded into dst: all X (the paper's initial
// condition), then the binary, then the input regions materialized per
// mode.
func (s *System) load(dst []memWord) error {
	for i := range dst {
		dst[i] = allXWord
	}
	for addr, w := range s.img.Words {
		if addr%2 != 0 {
			return fmt.Errorf("ulp430: odd image address %#04x", addr)
		}
		dst[addr/2] = memWord{val: w}
	}
	k := 0
	for _, r := range s.img.Inputs {
		for i := 0; i < r.Words; i++ {
			idx := (r.Addr + uint16(2*i)) / 2
			switch s.mode {
			case SymbolicInputs:
				dst[idx] = allXWord
			case ConcreteInputs:
				var v uint16
				if k < len(s.inputs) {
					v = s.inputs[k]
				}
				dst[idx] = memWord{val: v}
			}
			k++
		}
	}
	return nil
}

// baseMem returns memory as loaded, building it on first use. load
// cannot fail here: NewSystemEngine already loaded the same image.
func (s *System) baseMem() []memWord {
	if s.base == nil {
		s.base = make([]memWord, len(s.mem))
		_ = s.load(s.base)
	}
	return s.base
}

// Image returns the loaded binary.
func (s *System) Image() *isa.Image { return s.img }

// Err returns the first bus-protocol error (write to X address, store to
// ROM, access to unmapped space), or nil.
func (s *System) Err() error { return s.errState }

func (s *System) setErr(format string, args ...interface{}) {
	if s.errState == nil {
		s.errState = fmt.Errorf(format, args...)
	}
}

// EnableInterrupts attaches the peripheral bus (timer, ADC, radio) and
// connects its aggregated request line to the CPU's irq input. Must be
// called before Reset. In SymbolicInputs mode the ADC becomes a windowed
// symbolic event source: while a conversion's arrival window is open the
// line reads X and the symbolic engine forks on it. The bus is returned
// for direct device access in tests and examples.
func (s *System) EnableInterrupts(cfg periph.Config) *periph.Bus {
	s.bus = periph.NewBus(cfg, s.mode == SymbolicInputs)
	return s.bus
}

// Bus returns the attached peripheral bus, or nil.
func (s *System) Bus() *periph.Bus { return s.bus }

// Reset holds reset for two cycles and releases it.
func (s *System) Reset() {
	s.Sim.SetNet(s.rstNet, logic.H)
	s.Sim.SetNet(s.brForceEnNet, logic.L)
	s.Sim.SetNet(s.brForceValNet, logic.L)
	s.Sim.SetNet(s.irqNet, logic.L)
	s.lastLine = logic.L
	s.irqForce = forceNone
	if s.bus != nil {
		s.bus.Reset()
	}
	s.Sim.Step()
	s.Sim.Step()
	s.Sim.SetNet(s.rstNet, logic.L)
}

// Step advances one clock cycle, first refreshing the IRQ line from the
// peripheral bus so the cycle observes the request state as of its start.
func (s *System) Step() {
	if s.bus != nil {
		s.driveIRQ()
	}
	s.Sim.Step()
}

// driveIRQ computes the interrupt line for the upcoming cycle and stages
// it onto the irq net. A pending one-shot force (ForceIRQ) resolves an
// open symbolic window into a definite arrival (delivering the event to
// the device) or a definite non-arrival for this cycle only.
func (s *System) driveIRQ() {
	line := s.bus.Line(s.Sim.Cycle())
	switch s.irqForce {
	case forceHigh:
		s.bus.Deliver()
		line = logic.H
	case forceLow:
		line = logic.L
	}
	s.irqForce = forceNone
	if line != s.lastLine {
		s.Sim.SetNet(s.irqNet, line)
		s.lastLine = line
	}
}

// IRQCondUnknown reports whether the current cycle is an interruptible
// instruction boundary (GIE set, no reset) whose request line is X — the
// asynchronous-arrival fork point. The symbolic engine resolves it like
// an unknown branch: rewind one cycle, ForceIRQ each way, re-step.
func (s *System) IRQCondUnknown() bool {
	return s.bus != nil && s.lastLine == logic.X && s.Sim.Val(s.irqWinNet) == logic.H
}

// ForceIRQ resolves the next Step's IRQ line: true delivers the open
// symbolic event (the "arrived" direction of a fork), false holds the
// line low for one cycle (arrival deferred past this boundary). The
// override is consumed by the next Step.
func (s *System) ForceIRQ(v bool) {
	if v {
		s.irqForce = forceHigh
	} else {
		s.irqForce = forceLow
	}
}

// Halted reports whether the program has written the halt register.
func (s *System) Halted() bool { return s.Sim.Val(s.haltNet) == logic.H }

// JumpCondUnknown reports whether the current cycle is the EXEC cycle of
// a conditional jump whose condition is X — the fork point of Algorithm 1
// ("if an X symbol propagates to the inputs of the program counter").
func (s *System) JumpCondUnknown() bool {
	return s.Sim.Val(s.jumpExecNet) == logic.H && s.Sim.Val(s.jumpTakenNet) == logic.X
}

// ForceBranch arranges for the *next* evaluation of the jump condition to
// be forced to v; used by the symbolic engine when re-simulating a forked
// EXEC cycle. ClearForce removes the override.
func (s *System) ForceBranch(v bool) {
	s.Sim.SetNet(s.brForceEnNet, logic.H)
	s.Sim.SetNet(s.brForceValNet, logic.FromBool(v))
}

// ClearForce removes the branch override.
func (s *System) ClearForce() {
	s.Sim.SetNet(s.brForceEnNet, logic.L)
	s.Sim.SetNet(s.brForceValNet, logic.L)
}

// PC returns the architectural program counter; ok is false if any bit is
// X.
func (s *System) PC() (uint16, bool) {
	v, ok := s.Sim.Port("pc").Uint()
	return uint16(v), ok
}

// Reg returns an architectural register value by number (1, 4..15), plus
// PC (0) and SR (2).
func (s *System) Reg(r int) (uint16, bool) {
	var name string
	switch r {
	case 0:
		name = "pc"
	case 1:
		name = "sp"
	case 2:
		name = "sr"
	default:
		name = fmt.Sprintf("r%d", r)
	}
	v, ok := s.Sim.Port(name).Uint()
	return uint16(v), ok
}

// MemWord returns the current contents of a memory word as a logic.Word.
func (s *System) MemWord(addr uint16) logic.Word {
	w := make(logic.Word, 16)
	s.mem[addr/2].toLogic(w)
	return w
}

// Tick implements gsim.Bus: it services the registered memory access of
// the cycle in flight. It is per-cycle hot and must not allocate: port
// reads go through PortUint and the reusable scratch word.
func (s *System) Tick(sim *gsim.Simulator) {
	if s.bus != nil {
		s.bus.Tick(sim.Cycle())
	}
	if sim.Val(s.menNet) != logic.H {
		return // no access: hold mdb_in to minimize bus toggling
	}
	wr := sim.Val(s.mwrNet)
	addr64, addrKnown := sim.PortUint("mab")
	addr := uint16(addr64)

	if wr == logic.H {
		if !addrKnown {
			s.setErr("ulp430: memory write with unknown (X) address at cycle %d — input-dependent store address; the analysis cannot bound this program", sim.Cycle())
			return
		}
		if soc.IsPeripheral(addr) {
			return // handled by gate-level peripheral logic
		}
		if s.bus != nil && s.bus.Claims(addr) {
			for i, id := range s.mdbOutNets {
				s.scratch[i] = sim.Val(id)
			}
			data := wordFromLogic(s.scratch)
			if data.xmask != 0 {
				s.setErr("ulp430: store of unknown (X) data to device register %#04x at cycle %d — device configuration must be input-independent", addr, sim.Cycle())
				return
			}
			if err := s.bus.Write(addr, data.val, sim.Cycle()); err != nil {
				s.setErr("ulp430: %v (cycle %d)", err, sim.Cycle())
			}
			return
		}
		if soc.InDeviceSpace(addr) {
			s.setErr("ulp430: store to device register %#04x with no peripheral bus attached at cycle %d", addr, sim.Cycle())
			return
		}
		if !soc.InRAM(addr) {
			s.setErr("ulp430: store to non-RAM address %#04x at cycle %d", addr, sim.Cycle())
			return
		}
		for i, id := range s.mdbOutNets {
			s.scratch[i] = sim.Val(id)
		}
		data := wordFromLogic(s.scratch)
		idx := int32(addr / 2)
		s.journal = append(s.journal, journalEntry{idx: idx, old: s.mem[idx]})
		s.mem[idx] = data
		return
	}
	if wr == logic.X {
		s.setErr("ulp430: memory access with unknown write strobe at cycle %d", sim.Cycle())
		return
	}

	// Read.
	var out memWord
	switch {
	case !addrKnown:
		out = allXWord
	case s.bus != nil && addr == soc.IRQVecFetch:
		// Interrupt-entry vector indirection: the bus picks the
		// highest-priority pending device, acknowledges it, and the read
		// returns that device's vector-table entry from ROM.
		vec, ok := s.bus.TakeVector()
		if !ok {
			s.setErr("ulp430: spurious interrupt vector fetch at cycle %d", sim.Cycle())
			out = allXWord
		} else {
			out = s.mem[vec/2]
		}
	case addr == soc.P1IN:
		if s.mode == SymbolicInputs {
			out = allXWord
		} else if s.PortIn != nil {
			out = memWord{val: s.PortIn()}
		} else {
			out = memWord{val: 0}
		}
	case soc.IsPeripheral(addr):
		out = memWord{val: 0} // internal logic supplies the data
	case s.bus != nil && s.bus.Claims(addr):
		v, xm, err := s.bus.Read(addr)
		if err != nil {
			s.setErr("ulp430: %v (cycle %d)", err, sim.Cycle())
			out = allXWord
		} else {
			out = memWord{val: v, xmask: xm}
		}
	case soc.InDeviceSpace(addr):
		s.setErr("ulp430: load from device register %#04x with no peripheral bus attached at cycle %d", addr, sim.Cycle())
		out = allXWord
	case soc.InRAM(addr) || soc.InROM(addr):
		out = s.mem[addr/2]
	default:
		s.setErr("ulp430: load from unmapped address %#04x at cycle %d", addr, sim.Cycle())
		out = allXWord
	}
	if out != s.lastDin {
		s.lastDin = out
		out.toLogic(s.scratch)
		for i, id := range s.mdbInNets {
			sim.SetNet(id, s.scratch[i])
		}
	}
}

// SysSnapshot captures the full system state: simulator nets plus a
// memory journal position (memory restoration is O(writes since
// snapshot), not O(memory size)).
type SysSnapshot struct {
	sim      *gsim.Snapshot
	journal  int
	lastDin  memWord
	lastLine logic.Trit
	bus      periph.BusState
	err      error

	// pooled marks residence in a fork-snapshot free pool; any use of a
	// pooled snapshot is a use-after-free and panics.
	pooled bool
}

// MarkPooled flags the snapshot as returned to a free pool. Restoring
// or capturing from it before MarkTaken panics — turning silent
// recycled-buffer aliasing bugs into immediate failures.
func (sn *SysSnapshot) MarkPooled() { sn.pooled = true }

// MarkTaken flags the snapshot as checked out of its pool and usable.
func (sn *SysSnapshot) MarkTaken() { sn.pooled = false }

// Snapshot captures the current state. Snapshots form a LIFO discipline
// with Restore (depth-first exploration): restoring an older snapshot
// invalidates newer ones.
func (s *System) Snapshot() *SysSnapshot {
	sn := &SysSnapshot{}
	s.SnapshotInto(sn)
	return sn
}

// SnapshotInto captures the current state into sn, reusing its buffers.
func (s *System) SnapshotInto(sn *SysSnapshot) {
	if sn.sim == nil {
		sn.sim = &gsim.Snapshot{}
	}
	s.Sim.SnapshotInto(sn.sim)
	sn.journal = len(s.journal)
	sn.lastDin = s.lastDin
	sn.lastLine = s.lastLine
	if s.bus != nil {
		sn.bus = s.bus.State()
	}
	sn.err = s.errState
}

// Clone returns an independent deep copy of a snapshot (needed when a
// rolling snapshot buffer must be retained across further reuse).
func (sn *SysSnapshot) Clone() *SysSnapshot {
	c := &SysSnapshot{}
	sn.CloneInto(c)
	return c
}

// CloneInto deep-copies sn into dst, reusing dst's buffers — the
// allocation-free form backing the symbolic engine's fork-snapshot
// pool.
func (sn *SysSnapshot) CloneInto(dst *SysSnapshot) {
	dst.pooled = false
	if dst.sim == nil {
		dst.sim = &gsim.Snapshot{}
	}
	sn.sim.CloneInto(dst.sim)
	dst.journal = sn.journal
	dst.lastDin = sn.lastDin
	dst.lastLine = sn.lastLine
	dst.bus = sn.bus
	dst.err = sn.err
}

// Restore rewinds to a snapshot taken earlier on this path.
func (s *System) Restore(sn *SysSnapshot) {
	if sn.pooled {
		panic("ulp430: restore from a pooled fork snapshot (use after free)")
	}
	if sn.journal > len(s.journal) {
		panic("ulp430: restoring a snapshot newer than current state")
	}
	for i := len(s.journal) - 1; i >= sn.journal; i-- {
		e := s.journal[i]
		s.mem[e.idx] = e.old
	}
	s.journal = s.journal[:sn.journal]
	s.Sim.Restore(sn.sim)
	s.lastDin = sn.lastDin
	s.lastLine = sn.lastLine
	s.irqForce = forceNone
	if s.bus != nil {
		s.bus.SetState(sn.bus)
	}
	s.errState = sn.err
}

// PortableState is a self-contained capture of full system state — unlike
// SysSnapshot, whose memory component is a position in the owning system's
// undo journal, a PortableState carries its memory and can be installed
// on a *different* System built on the same netlist, library, image,
// inputs, and peripheral configuration, on either gate engine. It is the
// unit of work transfer for parallel symbolic exploration: a pending
// fork captured on one worker's system resumes on another's.
//
// Memory is held as a sparse diff against memory as loaded: the words
// that differ from it, in ascending index order. Both sides hold the
// loaded image, so a state carries only what its path changed.
type PortableState struct {
	sim      *gsim.Snapshot
	patches  []memPatch
	lastDin  memWord
	lastLine logic.Trit
	bus      periph.BusState
	err      error
}

// memPatch is one memory word that differs from memory as loaded.
type memPatch struct {
	idx uint16
	w   memWord
}

// CapturePortableAt materializes into dst the full system state as of sn,
// a snapshot taken earlier on this system's current path (its journal
// position must still be covered by the live journal — the usual LIFO
// discipline). Memory as of sn is rebuilt by undoing the journal suffix
// onto a reusable copy of current memory, then diffed against memory as
// loaded: the cost is O(memory + writes-since-snapshot), and the state
// holds only the patch list.
func (s *System) CapturePortableAt(sn *SysSnapshot, dst *PortableState) {
	if sn.pooled {
		panic("ulp430: portable capture from a pooled fork snapshot (use after free)")
	}
	if sn.journal > len(s.journal) {
		panic("ulp430: capturing a snapshot newer than current state")
	}
	if dst.sim == nil {
		dst.sim = &gsim.Snapshot{}
	}
	sn.sim.CloneInto(dst.sim)
	base := s.baseMem()
	if s.capMem == nil {
		s.capMem = make([]memWord, len(s.mem))
	}
	mem := s.capMem
	copy(mem, s.mem)
	for i := len(s.journal) - 1; i >= sn.journal; i-- {
		e := s.journal[i]
		mem[e.idx] = e.old
	}
	dst.patches = dst.patches[:0]
	for i, w := range mem {
		if w != base[i] {
			dst.patches = append(dst.patches, memPatch{idx: uint16(i), w: w})
		}
	}
	dst.lastDin = sn.lastDin
	dst.lastLine = sn.lastLine
	dst.bus = sn.bus
	dst.err = sn.err
}

// RestorePortable installs a portable state captured on a compatible
// system (same netlist/image/inputs/peripheral configuration, either
// gate engine).
// Memory is reset to memory as loaded and the state's patches applied,
// so nothing the previous path left in memory survives. The memory undo
// journal restarts empty: a portable restore is a new exploration root,
// not a rewind.
func (s *System) RestorePortable(st *PortableState) {
	copy(s.mem, s.baseMem())
	for _, p := range st.patches {
		s.mem[p.idx] = p.w
	}
	s.journal = s.journal[:0]
	s.Sim.Restore(st.sim)
	s.lastDin = st.lastDin
	s.lastLine = st.lastLine
	s.irqForce = forceNone
	if s.bus != nil {
		s.bus.SetState(st.bus)
	}
	s.errState = st.err
}

// StateKey returns the exploration's 128-bit merge key over flip-flop
// state, RAM contents and bus state — Algorithm 1's "the processor
// state is the same as it was when the branch was previously
// encountered". lo and hi are independently mixed hashes over the same
// state walk (different basis and multiplier per component, a
// splitmix-finalized bus term). Merging two genuinely different states requires both words
// to collide — see DESIGN.md "Merge keys".
func (s *System) StateKey() (lo, hi uint64) {
	lo = s.Sim.StateHash()
	hi = s.Sim.StateHash2()
	m1, m2 := s.memHashes()
	lo ^= m1
	lo *= 1099511628211
	hi ^= m2
	hi *= 0x106689D45497DE35
	if s.bus != nil {
		bh := s.bus.Hash(s.Sim.Cycle())
		lo ^= bh
		lo *= 1099511628211
		hi ^= mix64(bh ^ 0xD6E8FEB86659FD93)
		hi *= 0x106689D45497DE35
	}
	return lo, hi
}

// memHashes computes both RAM hash accumulators in a single pass.
func (s *System) memHashes() (h1, h2 uint64) {
	h1 = 1469598103934665603
	h2 = 0x9E3779B97F4A7C15
	lo := int32(soc.RAMStart / 2)
	hi := int32(soc.RAMEnd / 2)
	for i := lo; i < hi; i++ {
		w := s.mem[i]
		v := uint64(w.val) | uint64(w.xmask)<<16
		h1 ^= v
		h1 *= 1099511628211
		h2 ^= v
		h2 *= 0x106689D45497DE35
	}
	return h1, h2
}

// mix64 is the splitmix64 finalizer, decorrelating the bus hash's
// second use from its first.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// RunToHalt drives the system (after Reset) until the halt register is
// set, an error occurs, or maxCycles elapse. It requires fully concrete
// execution (it refuses to run past an unknown branch condition).
func (s *System) RunToHalt(maxCycles int) error {
	for i := 0; i < maxCycles; i++ {
		if s.Halted() {
			return nil
		}
		if err := s.Err(); err != nil {
			return err
		}
		if s.JumpCondUnknown() {
			return fmt.Errorf("ulp430: unknown branch condition at cycle %d (symbolic execution required)", s.Sim.Cycle())
		}
		s.Step()
	}
	if s.Halted() {
		return nil
	}
	return fmt.Errorf("ulp430: did not halt within %d cycles", maxCycles)
}
