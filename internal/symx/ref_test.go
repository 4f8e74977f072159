package symx

import (
	"fmt"
	"testing"

	"repro/internal/cell"
	"repro/internal/isa"
	"repro/internal/periph"
	"repro/internal/ulp430"
)

// refExplore is the reference Algorithm 1 the production explorers are
// checked against. It is deliberately naive and shares no exploration
// machinery with the production runner: a plain map of seen states, a
// full Snapshot at every cycle (no Mark/Rewind, no pool), recursion
// instead of a fork stack, and the tree built directly with IDs in
// creation order. Callers leave the step memo off on sys. The budget errors are spelled out here rather than taken from the
// production constructors, so their text is checked too.
func refExplore(sys *ulp430.System, sink Sink, opts Options) (*Tree, error) {
	if opts.MaxCycles == 0 {
		opts.MaxCycles = 2_000_000
	}
	if opts.MaxNodes == 0 {
		opts.MaxNodes = 10_000
	}
	r := &refExplorer{sys: sys, sink: sink, opts: opts, tree: &Tree{}, seen: map[ForkKey]*Node{}}
	sys.Reset()
	r.tree.Root = r.node()
	if err := r.path(r.tree.Root, sink.Pos(), ForkForces{}, true); err != nil {
		return nil, err
	}
	return r.tree, nil
}

type refExplorer struct {
	sys  *ulp430.System
	sink Sink
	opts Options
	tree *Tree
	seen map[ForkKey]*Node
}

func (r *refExplorer) node() *Node {
	n := &Node{ID: len(r.tree.Nodes)}
	r.tree.Nodes = append(r.tree.Nodes, n)
	return n
}

// end terminates segment n, which began at sink position start.
func (r *refExplorer) end(n *Node, start int, kind NodeKind) {
	n.Kind = kind
	n.Len = r.sink.Pos() - start
	n.Data = r.sink.Segment(start)
	if kind != KindBranch {
		r.tree.Paths++
	}
}

// path explores depth-first from the current state along segment n, which
// began at sink position start; f is the force set the next cycle steps
// under. fresh is false for a not-taken child: its first cycle re-steps
// the cycle that just forked, and Algorithm 1 checks halting and budgets
// only between resolved cycles, so the oracle must not check them there
// either to fail on the same budget.
func (r *refExplorer) path(n *Node, start int, f ForkForces, fresh bool) error {
	sys := r.sys
	for {
		if fresh {
			if err := sys.Err(); err != nil {
				return err
			}
			if sys.Halted() {
				r.end(n, start, KindEnd)
				return nil
			}
			if r.tree.Cycles > r.opts.MaxCycles {
				return r.cycleErr()
			}
			if len(r.tree.Nodes) > r.opts.MaxNodes {
				return fmt.Errorf("symx: exceeded %d tree nodes: %w", r.opts.MaxNodes, ErrNodeBudget)
			}
		}
		fresh = true

		before := sys.Snapshot()
		pos := r.sink.Pos()
		if f.BrEn {
			sys.ForceBranch(f.BrVal)
		}
		if f.IrqEn {
			sys.ForceIRQ(f.IrqVal)
		}
		sys.Step()
		sys.ClearForce()
		r.tree.Cycles++
		if r.tree.Cycles > r.opts.MaxCycles {
			return r.cycleErr()
		}

		irq := false
		switch {
		case sys.JumpCondUnknown():
		case sys.IRQCondUnknown():
			irq = true
		default:
			r.sink.OnCycle(sys)
			f = ForkForces{}
			if _, known := sys.Sim.PortUint("pc"); !known {
				return fmt.Errorf("symx: PC became X at cycle %d — input-dependent branch target (computed jump/call on input data) is not supported", sys.Sim.Cycle())
			}
			continue
		}

		// The cycle forks: rewind it and end the segment here.
		sys.Restore(before)
		n.BranchPC, _ = sys.PC()
		n.IRQ = irq
		key := stateKey(sys, f)
		if prior, ok := r.seen[key]; ok && !r.opts.DisableMerge {
			n.MergeTo = prior
			r.end(n, start, KindMerge)
			return nil
		}
		r.seen[key] = n
		r.end(n, start, KindBranch)

		n.NotTaken = r.node()
		if err := r.path(n.NotTaken, pos, f.with(irq, false), false); err != nil {
			return err
		}
		sys.Restore(before)
		r.sink.Rewind(pos)
		n.Taken = r.node()
		return r.path(n.Taken, pos, f.with(irq, true), true)
	}
}

func (r *refExplorer) cycleErr() error {
	return fmt.Errorf("symx: exceeded %d cycles (unbounded exploration? add smaller inputs or check for un-merged input-dependent loops): %w", r.opts.MaxCycles, ErrCycleBudget)
}

// refTree runs the reference explorer on src (irq non-nil attaches the
// peripheral bus) with a PC-recording sink.
func refTree(t *testing.T, src string, irq *periph.Config, opts Options) (*Tree, error) {
	t.Helper()
	img, err := isa.Assemble("t", src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	sys, err := ulp430.NewSystem(sharedCPU(t), cell.ULP65(), img, ulp430.SymbolicInputs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if irq != nil {
		sys.EnableInterrupts(*irq)
	}
	return refExplore(sys, &countSink{}, opts)
}
