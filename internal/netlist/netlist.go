// Package netlist provides the gate-level netlist representation the
// co-analysis operates on: a flat sea of standard cells (instances of
// cell.Kind) connected by nets, annotated with the microarchitectural
// module each cell belongs to, plus topological levelization for
// cycle-based simulation and a structural-Verilog writer/parser.
//
// Build additionally compiles the PackedPlan consumed by the bit-packed
// gate engine (internal/gsim): a bit-position layout of every net over
// 64-bit value/known planes, same-kind cell batches grouped by
// topological level with run-length-compressed input gather programs.
// The plan, like the netlist, is immutable after Build and shared by every
// concurrent simulation. See PERFORMANCE.md for the engine design.
//
// The paper's tool consumes "the gate-level netlist of the ULP processor"
// produced by synthesis and place-and-route (Section 4.1); this package is
// that artifact's in-memory form.
package netlist

import (
	"fmt"
	"sort"

	"repro/internal/cell"
)

// NetID identifies a net (a wire). Net 0 is valid.
type NetID int32

// None marks an unconnected input pin slot.
const None NetID = -1

// CellID identifies a cell instance within a netlist.
type CellID int32

// Cell is one standard-cell instance.
type Cell struct {
	// Kind is the library cell type.
	Kind cell.Kind
	// Name is the unique instance name (e.g. "U1423" or "pc_reg_5").
	Name string
	// Module is the hierarchical module path the instance belongs to,
	// e.g. "exec_unit.alu" or "frontend". Power breakdowns group by the
	// first path component.
	Module string
	// In holds the input net of each pin; unused slots are None.
	// Pin order: combinational cells use (A, B, C) with Mux2 as (S, D0, D1);
	// DFF variants use (D, RST, EN).
	In [3]NetID
	// Out is the output net (Q for DFF variants).
	Out NetID
}

// Netlist is a flat gate-level design.
type Netlist struct {
	// Name is the top module name.
	Name string

	cells    []Cell
	netNames []string
	inputs   []NetID
	isInput  []bool
	ports    map[string][]NetID

	built     bool
	levels    [][]CellID
	seq       []CellID
	driver    []CellID
	modules   []string
	modOfCell []uint16
	packed    *PackedPlan
}

// New returns an empty netlist with the given top-module name.
func New(name string) *Netlist {
	return &Netlist{Name: name, ports: make(map[string][]NetID)}
}

// NewNet allocates a net. The name may be empty; an automatic name is
// assigned. Names are used by the Verilog writer and VCD dumps.
func (n *Netlist) NewNet(name string) NetID {
	id := NetID(len(n.netNames))
	if name == "" {
		name = fmt.Sprintf("n%d", id)
	}
	n.netNames = append(n.netNames, name)
	n.isInput = append(n.isInput, false)
	return id
}

// NewNets allocates k nets named prefix[0..k-1].
func (n *Netlist) NewNets(prefix string, k int) []NetID {
	ids := make([]NetID, k)
	for i := range ids {
		ids[i] = n.NewNet(fmt.Sprintf("%s[%d]", prefix, i))
	}
	return ids
}

// MarkInput declares net id as a primary input, driven externally by the
// simulator each cycle (reset, port pins, memory read-data bus, ...).
func (n *Netlist) MarkInput(id NetID) {
	if !n.isInput[id] {
		n.isInput[id] = true
		n.inputs = append(n.inputs, id)
	}
}

// DefinePort records a named (vector) port for lookup by simulators and
// tools; it does not affect connectivity. Input ports must additionally be
// marked with MarkInput.
func (n *Netlist) DefinePort(name string, nets []NetID) {
	cp := make([]NetID, len(nets))
	copy(cp, nets)
	n.ports[name] = cp
}

// Port returns the nets of a named port, or nil if undefined.
func (n *Netlist) Port(name string) []NetID { return n.ports[name] }

// PortNames returns all defined port names, sorted.
func (n *Netlist) PortNames() []string {
	names := make([]string, 0, len(n.ports))
	for k := range n.ports {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// AddCell adds a cell instance driving out from ins. The number of ins
// must match k.NumInputs(). It returns the new cell's ID.
func (n *Netlist) AddCell(k cell.Kind, module, name string, out NetID, ins ...NetID) CellID {
	if len(ins) != k.NumInputs() {
		panic(fmt.Sprintf("netlist: %v takes %d inputs, got %d (cell %s)", k, k.NumInputs(), len(ins), name))
	}
	c := Cell{Kind: k, Name: name, Module: module, Out: out, In: [3]NetID{None, None, None}}
	copy(c.In[:], ins)
	id := CellID(len(n.cells))
	if name == "" {
		c.Name = fmt.Sprintf("U%d", id)
	}
	n.cells = append(n.cells, c)
	n.built = false
	return id
}

// NumNets returns the number of allocated nets.
func (n *Netlist) NumNets() int { return len(n.netNames) }

// NumCells returns the number of cell instances.
func (n *Netlist) NumCells() int { return len(n.cells) }

// Cell returns the cell with the given ID.
func (n *Netlist) Cell(id CellID) *Cell { return &n.cells[id] }

// Cells returns all cell instances (do not mutate).
func (n *Netlist) Cells() []Cell { return n.cells }

// NetName returns the name of net id.
func (n *Netlist) NetName(id NetID) string { return n.netNames[id] }

// Inputs returns the primary-input nets in declaration order.
func (n *Netlist) Inputs() []NetID { return n.inputs }

// IsInput reports whether id is a primary input.
func (n *Netlist) IsInput(id NetID) bool { return n.isInput[id] }

// Build validates the design and computes the topological levelization
// used by cycle-based simulation. It must be called (once) after
// construction and before Levels/Sequential/Driver are used. Build fails
// on multiply-driven nets, undriven non-input nets, pins connected to
// unallocated nets, and combinational cycles.
func (n *Netlist) Build() error {
	numNets := len(n.netNames)
	n.driver = make([]CellID, numNets)
	for i := range n.driver {
		n.driver[i] = -1
	}
	for ci := range n.cells {
		c := &n.cells[ci]
		if c.Out < 0 || int(c.Out) >= numNets {
			return fmt.Errorf("netlist: cell %s output net %d out of range", c.Name, c.Out)
		}
		for pin := 0; pin < c.Kind.NumInputs(); pin++ {
			in := c.In[pin]
			if in < 0 || int(in) >= numNets {
				return fmt.Errorf("netlist: cell %s input pin %d net %d out of range", c.Name, pin, in)
			}
		}
		if n.isInput[c.Out] {
			return fmt.Errorf("netlist: net %s is both a primary input and driven by cell %s", n.netNames[c.Out], c.Name)
		}
		if n.driver[c.Out] != -1 {
			return fmt.Errorf("netlist: net %s multiply driven (cells %s and %s)",
				n.netNames[c.Out], n.cells[n.driver[c.Out]].Name, c.Name)
		}
		n.driver[c.Out] = CellID(ci)
	}
	// Every net read by some pin must be driven or be a primary input.
	for ci := range n.cells {
		c := &n.cells[ci]
		for pin := 0; pin < c.Kind.NumInputs(); pin++ {
			in := c.In[pin]
			if n.driver[in] == -1 && !n.isInput[in] {
				return fmt.Errorf("netlist: net %s (read by %s) has no driver and is not an input",
					n.netNames[in], c.Name)
			}
		}
	}

	// Kahn levelization of combinational cells. Sources: primary inputs,
	// DFF outputs, and tie cells (zero-input).
	n.seq = n.seq[:0]
	indeg := make([]int, len(n.cells))
	// fanout: net -> combinational consumer cells
	fanout := make([][]CellID, numNets)
	for ci := range n.cells {
		c := &n.cells[ci]
		if c.Kind.Sequential() {
			n.seq = append(n.seq, CellID(ci))
			continue
		}
		deg := 0
		for pin := 0; pin < c.Kind.NumInputs(); pin++ {
			in := c.In[pin]
			d := n.driver[in]
			if d != -1 && !n.cells[d].Kind.Sequential() {
				deg++
				fanout[in] = append(fanout[in], CellID(ci))
			}
		}
		indeg[ci] = deg
	}
	var frontier []CellID
	for ci := range n.cells {
		if !n.cells[ci].Kind.Sequential() && indeg[ci] == 0 {
			frontier = append(frontier, CellID(ci))
		}
	}
	n.levels = n.levels[:0]
	placed := 0
	for len(frontier) > 0 {
		level := frontier
		n.levels = append(n.levels, level)
		placed += len(level)
		frontier = nil
		for _, ci := range level {
			out := n.cells[ci].Out
			for _, consumer := range fanout[out] {
				indeg[consumer]--
				if indeg[consumer] == 0 {
					frontier = append(frontier, consumer)
				}
			}
		}
	}
	combCount := len(n.cells) - len(n.seq)
	if placed != combCount {
		for ci := range n.cells {
			if !n.cells[ci].Kind.Sequential() && indeg[ci] > 0 {
				return fmt.Errorf("netlist: combinational cycle through cell %s (module %s)",
					n.cells[ci].Name, n.cells[ci].Module)
			}
		}
		return fmt.Errorf("netlist: combinational cycle detected")
	}

	// Intern module names.
	modIdx := make(map[string]uint16)
	n.modules = n.modules[:0]
	n.modOfCell = make([]uint16, len(n.cells))
	for ci := range n.cells {
		m := topModule(n.cells[ci].Module)
		idx, ok := modIdx[m]
		if !ok {
			idx = uint16(len(n.modules))
			modIdx[m] = idx
			n.modules = append(n.modules, m)
		}
		n.modOfCell[ci] = idx
	}
	n.buildPacked()
	n.built = true
	return nil
}

func topModule(path string) string {
	for i := 0; i < len(path); i++ {
		if path[i] == '.' {
			return path[:i]
		}
	}
	return path
}

// Built reports whether Build has succeeded since the last mutation.
func (n *Netlist) Built() bool { return n.built }

// Levels returns combinational cells grouped by topological level; level 0
// cells depend only on primary inputs, flip-flop outputs, and tie cells.
func (n *Netlist) Levels() [][]CellID { return n.levels }

// Sequential returns all flip-flop cell IDs.
func (n *Netlist) Sequential() []CellID { return n.seq }

// Modules returns the distinct top-level module names in first-seen order.
func (n *Netlist) Modules() []string { return n.modules }

// ModuleIndex returns the interned index of cell ci's top-level module.
func (n *Netlist) ModuleIndex(ci CellID) int { return int(n.modOfCell[ci]) }

// Stats summarizes a built netlist.
type Stats struct {
	// Cells is the total number of instances.
	Cells int
	// Seq is the number of flip-flops.
	Seq int
	// Nets is the number of nets.
	Nets int
	// Levels is the combinational depth.
	Levels int
	// AreaUM2 is the summed cell area.
	AreaUM2 float64
	// ByModule counts cells per top-level module.
	ByModule map[string]int
	// ByKind counts cells per cell kind.
	ByKind map[string]int
}

// Stats computes summary statistics using lib for area.
func (n *Netlist) Stats(lib *cell.Library) Stats {
	s := Stats{
		Cells:    len(n.cells),
		Seq:      len(n.seq),
		Nets:     len(n.netNames),
		Levels:   len(n.levels),
		ByModule: make(map[string]int),
		ByKind:   make(map[string]int),
	}
	for ci := range n.cells {
		c := &n.cells[ci]
		s.AreaUM2 += lib.Params(c.Kind).AreaUM2
		s.ByModule[topModule(c.Module)]++
		s.ByKind[c.Kind.String()]++
	}
	return s
}
