package netlist_test

import (
	"fmt"
	"math/bits"
	"testing"

	"repro/internal/cell"
	"repro/internal/netlist"
	"repro/internal/ulp430"
)

// planDesign builds a small mixed design: inputs, ties, flip-flops, a
// mux bank with a shared select (broadcast fan-in), and an XOR chain
// (consecutive fan-in).
func planDesign(t *testing.T) *netlist.Netlist {
	t.Helper()
	n := netlist.New("plan")
	sel := n.NewNet("sel")
	n.MarkInput(sel)
	ins := n.NewNets("in", 8)
	for _, id := range ins {
		n.MarkInput(id)
	}
	t1 := n.NewNet("")
	n.AddCell(cell.Tie1, "m", "", t1)
	q := make([]netlist.NetID, 4)
	for i := range q {
		q[i] = n.NewNet("")
	}
	// mux bank: shared select, bus data.
	mux := make([]netlist.NetID, 4)
	for i := range mux {
		mux[i] = n.NewNet("")
		n.AddCell(cell.Mux2, "m", "", mux[i], sel, ins[i], ins[i+4])
	}
	// xor chain over the mux outputs.
	x := make([]netlist.NetID, 4)
	for i := range x {
		x[i] = n.NewNet("")
		n.AddCell(cell.Xor2, "m", "", x[i], mux[i], q[i])
	}
	for i := range q {
		n.AddCell(cell.Dffr, "m", "", q[i], x[i], sel)
	}
	if err := n.Build(); err != nil {
		t.Fatal(err)
	}
	return n
}

func TestPackedPlanInvariants(t *testing.T) {
	n := planDesign(t)
	p := n.Packed()

	// Every net has a unique position inside the plane.
	seen := make(map[int32]bool)
	for id, pos := range p.Pos {
		if pos < 0 || int(pos) >= p.Words*64 {
			t.Fatalf("net %d position %d out of range", id, pos)
		}
		if seen[pos] {
			t.Fatalf("position %d assigned twice", pos)
		}
		seen[pos] = true
	}

	// Inputs occupy [0, InputBits) in declaration order.
	if p.InputBits != len(n.Inputs()) {
		t.Fatalf("InputBits %d, want %d", p.InputBits, len(n.Inputs()))
	}
	for i, id := range n.Inputs() {
		if p.Pos[id] != int32(i) {
			t.Fatalf("input %d at position %d", i, p.Pos[id])
		}
	}

	// Batch outputs are consecutive, same-kind, and CellOfPos inverts.
	checkBatch := func(b *netlist.PackedBatch) {
		if b.NIn != b.Kind.NumInputs() {
			t.Fatalf("batch NIn %d, want %d", b.NIn, b.Kind.NumInputs())
		}
		for lane, ci := range b.Cells {
			c := n.Cell(ci)
			if c.Kind != b.Kind {
				t.Fatalf("batch of %v holds %v", b.Kind, c.Kind)
			}
			pos := b.FirstPos + int32(lane)
			if p.Pos[c.Out] != pos {
				t.Fatalf("lane %d output at %d, want %d", lane, p.Pos[c.Out], pos)
			}
			if p.CellOfPos[pos] != ci {
				t.Fatalf("CellOfPos[%d] = %d, want %d", pos, p.CellOfPos[pos], ci)
			}
			for pin := 0; pin < b.NIn; pin++ {
				if b.In[pin][lane] != p.Pos[c.In[pin]] {
					t.Fatalf("pin %d lane %d position mismatch", pin, lane)
				}
			}
		}
	}
	total := 0
	for bi := range p.Seq {
		checkBatch(&p.Seq[bi])
		total += len(p.Seq[bi].Cells)
	}
	for li := range p.Levels {
		for bi := range p.Levels[li].Batches {
			checkBatch(&p.Levels[li].Batches[bi])
			total += len(p.Levels[li].Batches[bi].Cells)
		}
	}
	if total != n.NumCells() {
		t.Fatalf("batches cover %d cells, want %d", total, n.NumCells())
	}
}

// decodeGroup replays a group's gather program bit by bit and checks
// it against the batches' In vectors: every lane of every (batch, pin,
// chunk) slot must receive exactly its input net's plane position, and
// nothing else may be written. It also checks the program's shape: op
// lists sorted by slot, every slot written by at least one op, and
// every copy reading one run of consecutive bits inside its source word
// (runs that cross a word are split at build time).
func decodeGroup(batches []netlist.PackedBatch, g netlist.GatherProgram) error {
	src := make([][64]int32, g.Slots)
	for s := range src {
		for l := range src[s] {
			src[s][l] = -1
		}
	}
	ops := make([]int, g.Slots)
	for _, list := range []struct {
		ops   []netlist.GatherOp
		bcast bool
	}{{g.Ops, false}, {g.Bcast, true}} {
		for i, o := range list.ops {
			if int(o.Slot) >= g.Slots {
				return fmt.Errorf("op %d: slot %d of %d", i, o.Slot, g.Slots)
			}
			if i > 0 && o.Slot < list.ops[i-1].Slot {
				return fmt.Errorf("op %d: slot %d after slot %d", i, o.Slot, list.ops[i-1].Slot)
			}
			if o.Mask == 0 {
				return fmt.Errorf("op %d: empty mask", i)
			}
			ops[o.Slot]++
			lo, nb := bits.TrailingZeros64(o.Mask), bits.OnesCount64(o.Mask)
			if o.Mask != ^uint64(0)>>(64-nb)<<lo {
				return fmt.Errorf("op %d: mask %#x is not one run of lanes", i, o.Mask)
			}
			first := (lo - o.Shift()) & 63
			if !list.bcast && first+nb > 64 {
				return fmt.Errorf("op %d: copy of bits [%d, %d) straddles word %d", i, first, first+nb, o.Word())
			}
			for l := lo; l < lo+nb; l++ {
				pos := int32(o.Word()*64 + o.Shift())
				if !list.bcast {
					pos = int32(o.Word()*64 + (l-o.Shift())&63)
				}
				if src[o.Slot][l] >= 0 {
					return fmt.Errorf("op %d: slot %d lane %d written twice", i, o.Slot, l)
				}
				src[o.Slot][l] = pos
			}
		}
	}
	for s, n := range ops {
		if n == 0 {
			return fmt.Errorf("slot %d gets no op", s)
		}
	}
	slots := 0
	for bi := range batches {
		b := &batches[bi]
		if int(b.Slot) != slots {
			return fmt.Errorf("%v batch: first slot %d, want %d", b.Kind, b.Slot, slots)
		}
		slots += b.NIn * b.Chunks()
		for pin := 0; pin < b.NIn; pin++ {
			for c := 0; c < b.Chunks(); c++ {
				got := src[int(b.Slot)+pin*b.Chunks()+c]
				for l := range got {
					want := int32(-1)
					if lane := c*64 + l; lane < len(b.Cells) {
						want = b.In[pin][lane]
					}
					if got[l] != want {
						return fmt.Errorf("%v pin %d lane %d: gather yields %d, want %d",
							b.Kind, pin, c*64+l, got[l], want)
					}
				}
			}
		}
	}
	if slots != g.Slots {
		return fmt.Errorf("batches use %d slots, program has %d", slots, g.Slots)
	}
	return nil
}

// TestGatherProgramsReproducePositions decodes every group's gather
// program back into per-lane source positions and checks them against
// In, for the mixed test design and the ULP430 core; a rotation or mask
// off by one lane must fail the same check. It logs the ULP430 plan's
// op counts, the measure of how well the layout compresses fan-in.
func TestGatherProgramsReproducePositions(t *testing.T) {
	cpu, err := ulp430.BuildCPU()
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []struct {
		name string
		n    *netlist.Netlist
	}{{"plan", planDesign(t)}, {"ulp430", cpu}} {
		p := d.n.Packed()
		groups := []struct {
			batches []netlist.PackedBatch
			g       netlist.GatherProgram
		}{{p.Seq, p.SeqGather}}
		for _, lv := range p.Levels {
			groups = append(groups, struct {
				batches []netlist.PackedBatch
				g       netlist.GatherProgram
			}{lv.Batches, lv.Gather})
		}
		var nOps, nSingle, nBcast, nLongBcast, nLongRun, opBits int
		for gi, gr := range groups {
			if err := decodeGroup(gr.batches, gr.g); err != nil {
				t.Fatalf("%s group %d: %v", d.name, gi, err)
			}
			nOps += len(gr.g.Ops)
			nBcast += len(gr.g.Bcast)
			for _, o := range gr.g.Ops {
				nb := bits.OnesCount64(o.Mask)
				opBits += nb
				if nb == 1 {
					nSingle++
				} else {
					nLongRun++
				}
			}
			for _, o := range gr.g.Bcast {
				if bits.OnesCount64(o.Mask) > 1 {
					nLongBcast++
				}
			}
		}
		t.Logf("%s: %d copy ops (%d single-bit, %.2f bits per op), %d broadcasts",
			d.name, nOps, nSingle, float64(opBits)/float64(max(nOps, 1)), nBcast)
		// The test design was built to exercise both compressions.
		if nLongBcast == 0 {
			t.Errorf("%s: shared fan-in should compile to a multi-lane broadcast", d.name)
		}
		if nLongRun == 0 {
			t.Errorf("%s: bus fan-in should compile to a multi-bit copy", d.name)
		}

		// The check itself must catch a wrong rotation or mask.
		for _, gr := range groups {
			if len(gr.g.Ops) == 0 {
				continue
			}
			for _, mutate := range []func(*netlist.GatherOp){
				func(o *netlist.GatherOp) { o.Src = o.Src&^63 | (o.Src+1)&63 },
				func(o *netlist.GatherOp) { o.Mask &= o.Mask - 1 },
			} {
				bad := gr.g
				bad.Ops = append([]netlist.GatherOp(nil), gr.g.Ops...)
				mutate(&bad.Ops[len(bad.Ops)/2])
				if decodeGroup(gr.batches, bad) == nil {
					t.Fatalf("%s: a mutated op passes the decode check", d.name)
				}
			}
		}
	}
}
