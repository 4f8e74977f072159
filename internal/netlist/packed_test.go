package netlist

import (
	"testing"

	"repro/internal/cell"
)

// planDesign builds a small mixed design: inputs, ties, flip-flops, a
// mux bank with a shared select (broadcast fan-in), and an XOR chain
// (consecutive fan-in).
func planDesign(t *testing.T) *Netlist {
	t.Helper()
	n := New("plan")
	sel := n.NewNet("sel")
	n.MarkInput(sel)
	ins := n.NewNets("in", 8)
	for _, id := range ins {
		n.MarkInput(id)
	}
	t1 := n.NewNet("")
	n.AddCell(cell.Tie1, "m", "", t1)
	q := make([]NetID, 4)
	for i := range q {
		q[i] = n.NewNet("")
	}
	// mux bank: shared select, bus data.
	mux := make([]NetID, 4)
	for i := range mux {
		mux[i] = n.NewNet("")
		n.AddCell(cell.Mux2, "m", "", mux[i], sel, ins[i], ins[i+4])
	}
	// xor chain over the mux outputs.
	x := make([]NetID, 4)
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
	checkBatch := func(b *PackedBatch) {
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

// TestGatherProgramsReproducePositions decodes every gather program
// back into per-lane source positions and checks it against In.
func TestGatherProgramsReproducePositions(t *testing.T) {
	n := planDesign(t)
	p := n.Packed()
	decode := func(b *PackedBatch, pin int) []int32 {
		out := make([]int32, len(b.Cells))
		for i := range out {
			out[i] = -1
		}
		for c := 0; c < b.Chunks(); c++ {
			for _, r := range b.Gather[pin][c] {
				if r.Bcast {
					t.Fatal("broadcast run in consecutive list")
				}
				for i := 0; i < int(r.N); i++ {
					out[c*64+int(r.Off)+i] = r.Src + int32(i)
				}
			}
			for _, r := range b.GatherB[pin][c] {
				if !r.Bcast {
					t.Fatal("consecutive run in broadcast list")
				}
				for i := 0; i < int(r.N); i++ {
					out[c*64+int(r.Off)+i] = r.Src
				}
			}
		}
		return out
	}
	sawBcast, sawLongRun := false, false
	check := func(b *PackedBatch) {
		for pin := 0; pin < b.NIn; pin++ {
			got := decode(b, pin)
			for lane, want := range b.In[pin] {
				if got[lane] != want {
					t.Fatalf("%v pin %d lane %d: gather yields %d, want %d",
						b.Kind, pin, lane, got[lane], want)
				}
			}
			for c := 0; c < b.Chunks(); c++ {
				for _, r := range b.GatherB[pin][c] {
					if r.N > 1 {
						sawBcast = true
					}
				}
				for _, r := range b.Gather[pin][c] {
					if r.N > 1 {
						sawLongRun = true
					}
				}
			}
		}
	}
	for bi := range p.Seq {
		check(&p.Seq[bi])
	}
	for li := range p.Levels {
		for bi := range p.Levels[li].Batches {
			check(&p.Levels[li].Batches[bi])
		}
	}
	// The design was built to exercise both compressions.
	if !sawBcast {
		t.Error("shared mux select should compile to a broadcast run")
	}
	if !sawLongRun {
		t.Error("bus fan-in should compile to a multi-bit run")
	}
}
