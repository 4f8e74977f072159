package gsim

import (
	"repro/internal/cell"
	"repro/internal/logic"
	"repro/internal/netlist"
)

// stepScalar is the reference engine's cycle after Step's phase 0:
// one cell.Eval per gate in one flat topological pass, then the
// per-gate activity rules. It is deliberately simple — the packed
// engine is differentially tested against it — and touches the shared
// planes one net at a time.
func (s *Simulator) stepScalar() {
	// 1. Clock edge: flip-flops capture next state computed from the
	// previous cycle's settled values (which no capture overwrites).
	for _, ci := range s.seq {
		c := s.n.Cell(ci)
		var a, b, cc logic.Trit
		a = s.prevVal(c.In[0])
		if c.In[1] >= 0 {
			b = s.prevVal(c.In[1])
		}
		if c.In[2] >= 0 {
			cc = s.prevVal(c.In[2])
		}
		s.setTrit(c.Out, cell.Eval(c.Kind, a, b, cc, s.prevVal(c.Out)))
	}

	// 2. External bus observes registered outputs and drives read data.
	if s.bus != nil {
		s.bus.Tick(s)
	}

	// 3. Combinational settling in topological order.
	for _, ci := range s.order {
		c := s.n.Cell(ci)
		var a, b, cc logic.Trit
		if c.In[0] >= 0 {
			a = s.val(c.In[0])
		}
		if c.In[1] >= 0 {
			b = s.val(c.In[1])
		}
		if c.In[2] >= 0 {
			cc = s.val(c.In[2])
		}
		s.setTrit(c.Out, cell.Eval(c.Kind, a, b, cc, 0))
	}

	// 4. Activity: toggled, or X driven by an active gate (the paper's
	// Section 3.1 rule). Primary inputs are active when they changed or
	// are X (inputs are the unconstrained signals the analysis
	// abstracts). Flip-flop outputs changed at the clock edge as a
	// function of last cycle's inputs, so their X-activity derives from
	// last cycle's activity flags; combinational gates settle within the
	// cycle and use current flags in topological order.
	copy(s.prevAct, s.act)
	pos := s.plan.Pos
	for _, ci := range s.seq {
		c := s.n.Cell(ci)
		out := c.Out
		if s.prevVal(out) != s.val(out) {
			s.setActive(out, true)
			continue
		}
		act := false
		if s.val(out) == logic.X && s.seqCanCapture(c) {
			for pin := 0; pin < c.Kind.NumInputs(); pin++ {
				if planeBit(s.prevAct, pos[c.In[pin]]) {
					act = true
					break
				}
			}
		}
		s.setActive(out, act)
	}
	for _, id := range s.n.Inputs() {
		s.setActive(id, s.prevVal(id) != s.val(id) || s.val(id) == logic.X)
	}
	for _, ci := range s.order {
		c := s.n.Cell(ci)
		out := c.Out
		if s.prevVal(out) != s.val(out) {
			s.setActive(out, true)
			continue
		}
		act := false
		if s.val(out) == logic.X {
			for pin := 0; pin < c.Kind.NumInputs(); pin++ {
				if s.isActive(c.In[pin]) {
					act = true
					break
				}
			}
		}
		s.setActive(out, act)
	}
}

// seqCanCapture reports whether a flip-flop could have captured a new
// value at the edge that began this cycle. A Dffre whose enable was a
// known 0 (with reset known inactive) held its state in *every* concrete
// refinement, so an unchanged-X output cannot have toggled — this keeps
// idle X-holding register banks (e.g. the multiplier operands) from being
// conservatively marked active via their data-pin cones.
func (s *Simulator) seqCanCapture(c *netlist.Cell) bool {
	if c.Kind != cell.Dffre {
		return true
	}
	rst := s.prevVal(c.In[1])
	en := s.prevVal(c.In[2])
	return !(en == logic.L && rst == logic.L)
}
