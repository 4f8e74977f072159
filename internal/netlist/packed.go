package netlist

import (
	"sort"

	"repro/internal/cell"
)

// PackedPlan is the build-time layout the bit-packed gate engine in
// internal/gsim evaluates: every net is assigned a bit position in a
// pair of 64-bit planes (value/known), and cells are grouped into
// same-kind batches — flip-flops by kind, combinational cells by
// (topological level, kind) — whose output positions are consecutive,
// so one word operation evaluates up to 64 gates.
//
// The layout is: primary inputs first (so input staging and the
// inputs' activity touch a compact word range), then flip-flop outputs grouped
// by kind, then each topological level's outputs grouped by kind, then
// any remaining unconnected nets. Because positions follow dataflow
// order, fan-in is frequently consecutive (bus wiring, stage-to-stage
// batches), which the gather programs exploit: each input pin vector is
// run-length compressed into word-sized rotate-and-mask copies instead
// of per-bit extraction.
//
// Each gather program serves a whole group at once — the flip-flops, or
// one topological level — so the engine walks one flat op list per
// level over its value, known and flag planes together, and then
// evaluates the level's batches from the gathered slots.
//
// A PackedPlan is immutable after Build and shared by every simulator
// instance of the netlist, like the netlist itself.
type PackedPlan struct {
	// Words is the plane length in 64-bit words.
	Words int
	// Pos maps each net to its plane bit position.
	Pos []int32
	// CellOfPos maps a plane bit position to the cell driving that net,
	// or -1 for primary inputs and undriven nets.
	CellOfPos []CellID
	// InputBits is the number of primary inputs; they occupy positions
	// [0, InputBits).
	InputBits int
	// Seq holds the flip-flop batches (evaluated at the clock edge).
	Seq []PackedBatch
	// SeqGather gathers every flip-flop batch's input slots.
	SeqGather GatherProgram
	// Levels holds per-topological-level combinational batches.
	Levels []PackedLevel
}

// PackedLevel is one topological level of combinational batches.
type PackedLevel struct {
	// Batches are the level's same-kind cell groups.
	Batches []PackedBatch
	// Gather gathers every batch's input slots.
	Gather GatherProgram
}

// PackedBatch is a run of same-kind cells whose output nets occupy the
// consecutive plane positions [FirstPos, FirstPos+len(Cells)).
type PackedBatch struct {
	// Kind is the shared cell kind.
	Kind cell.Kind
	// NIn caches Kind.NumInputs() for the engine's hot loops.
	NIn int
	// Cells lists the batch members; lane i drives position FirstPos+i.
	Cells []CellID
	// FirstPos is the plane bit position of lane 0's output.
	FirstPos int32
	// Slot is the batch's first slot in its group's GatherProgram: the
	// input word of pin p, 64-lane chunk c is slot Slot + p*Chunks() + c.
	Slot int32
	// In holds, per used input pin, the plane position of each lane's
	// input net (lane-indexed); unused pin slots are nil. Diagnostics
	// and tests walk these; evaluation uses the gather programs.
	In [3][]int32
}

// Chunks returns the number of 64-lane chunks in the batch.
func (b *PackedBatch) Chunks() int { return (len(b.Cells) + 63) / 64 }

// GatherProgram assembles a group's input words: after it runs, slot s
// holds, in bit i, the source plane bit of lane i of the (batch, pin,
// chunk) that s names (see PackedBatch.Slot). Both op lists are sorted
// by Slot; every lane of every slot is written by exactly one op.
type GatherProgram struct {
	// Slots is the number of destination slots.
	Slots int
	// Ops are the rotate-and-mask copies: slot |= rotl(word, rot) & Mask.
	Ops []GatherOp
	// Bcast are the broadcasts (one source bit replicated into every
	// lane of Mask: shared fan-in, e.g. one select net driving a mux
	// bank): slot |= -(word>>bit&1) & Mask.
	Bcast []GatherOp
}

// GatherOp is one instruction of a GatherProgram. Src packs the source
// plane word with a 6-bit shift: word<<6 | rot for a copy, word<<6 |
// bit for a broadcast. Plane positions are int32, so a word index is
// below 1<<25 and the packed field cannot overflow; a program never
// has more slots than three per 64 cells plus three per batch, far
// below 1<<32, so neither can Slot.
type GatherOp struct {
	// Mask selects the destination lanes the op writes.
	Mask uint64
	// Src is the source word index and shift, packed as above.
	Src uint32
	// Slot is the destination slot.
	Slot uint32
}

// Word returns the op's source plane word index.
func (o GatherOp) Word() int { return int(o.Src >> 6) }

// Shift returns the op's left rotation (copies) or source bit
// (broadcasts).
func (o GatherOp) Shift() int { return int(o.Src & 63) }

// Packed returns the packed-evaluation plan computed by Build. It
// panics if the netlist has not been built.
func (n *Netlist) Packed() *PackedPlan {
	if !n.built {
		panic("netlist: Packed before Build")
	}
	return n.packed
}

// buildPacked computes the PackedPlan for a just-validated netlist; it
// runs as the final stage of Build, after levelization.
func (n *Netlist) buildPacked() {
	numNets := len(n.netNames)
	p := &PackedPlan{Pos: make([]int32, numNets)}
	for i := range p.Pos {
		p.Pos[i] = -1
	}
	next := int32(0)

	// 1. Primary inputs.
	for _, id := range n.inputs {
		p.Pos[id] = next
		next++
	}
	p.InputBits = int(next)

	// A batch claims the next positions for its cells' outputs.
	mkBatch := func(kind cell.Kind, cells []CellID) PackedBatch {
		b := PackedBatch{Kind: kind, NIn: kind.NumInputs(), Cells: cells, FirstPos: next}
		for _, ci := range cells {
			p.Pos[n.cells[ci].Out] = next
			next++
		}
		return b
	}

	// 2. Flip-flop outputs, grouped by kind.
	buckets := make([][]CellID, cell.NumKinds)
	for _, ci := range n.seq {
		k := n.cells[ci].Kind
		buckets[k] = append(buckets[k], ci)
	}
	for k := range buckets {
		if len(buckets[k]) > 0 {
			// Copy out of the reusable bucket: step 3 truncates and
			// refills the same backing arrays per level.
			cs := make([]CellID, len(buckets[k]))
			copy(cs, buckets[k])
			p.Seq = append(p.Seq, mkBatch(cell.Kind(k), cs))
		}
	}

	// 3. Combinational levels, each grouped by kind. Within a batch,
	// lanes are ordered by fan-in position (a free permutation: lane
	// order only decides which output bit a cell drives), which turns
	// bus-shaped fan-in into long consecutive gather runs.
	p.Levels = make([]PackedLevel, len(n.levels))
	for li, lvl := range n.levels {
		for k := range buckets {
			buckets[k] = buckets[k][:0]
		}
		for _, ci := range lvl {
			k := n.cells[ci].Kind
			buckets[k] = append(buckets[k], ci)
		}
		for k := range buckets {
			if len(buckets[k]) > 0 {
				cs := make([]CellID, len(buckets[k]))
				copy(cs, buckets[k])
				p.sortLanes(n, cell.Kind(k), cs)
				p.Levels[li].Batches = append(p.Levels[li].Batches, mkBatch(cell.Kind(k), cs))
			}
		}
	}

	// 4. Leftover nets (allocated but neither inputs nor driven): they
	// hold X forever, exactly like the scalar engine's untouched slots.
	for id := range p.Pos {
		if p.Pos[id] < 0 {
			p.Pos[id] = next
			next++
		}
	}
	p.Words = int(next+63) / 64

	// Second pass: per-pin input positions and gather programs
	// (flip-flop fan-in may live in later-assigned groups, so this
	// cannot be fused with position assignment).
	p.SeqGather = p.compileGroup(n, p.Seq)
	for li := range p.Levels {
		lv := &p.Levels[li]
		lv.Gather = p.compileGroup(n, lv.Batches)
	}

	p.CellOfPos = make([]CellID, p.Words*64)
	for i := range p.CellOfPos {
		p.CellOfPos[i] = -1
	}
	for ci := range n.cells {
		p.CellOfPos[p.Pos[n.cells[ci].Out]] = CellID(ci)
	}
	n.packed = p
}

// compileGroup fills a group's per-pin input positions, assigns each
// batch its slots, and compiles the group's gather program at its exact
// size (one counting pass, one filling pass).
func (p *PackedPlan) compileGroup(n *Netlist, batches []PackedBatch) GatherProgram {
	var g GatherProgram
	nOps, nBcast := 0, 0
	for bi := range batches {
		b := &batches[bi]
		b.Slot = int32(g.Slots)
		g.Slots += b.NIn * b.Chunks()
		for pin := 0; pin < b.NIn; pin++ {
			in := make([]int32, len(b.Cells))
			for i, ci := range b.Cells {
				in[i] = p.Pos[n.cells[ci].In[pin]]
			}
			b.In[pin] = in
			forEachRun(in, func(_, _, _ int, _ int32, bcast bool) {
				if bcast {
					nBcast++
				} else {
					nOps++
				}
			})
		}
	}
	g.Ops = make([]GatherOp, 0, nOps)
	g.Bcast = make([]GatherOp, 0, nBcast)
	for bi := range batches {
		b := &batches[bi]
		chunks := b.Chunks()
		for pin := 0; pin < b.NIn; pin++ {
			slot0 := uint32(int(b.Slot) + pin*chunks)
			forEachRun(b.In[pin], func(chunk, off, nBits int, src int32, bcast bool) {
				op := GatherOp{
					Mask: ^uint64(0) >> (64 - nBits) << off,
					Slot: slot0 + uint32(chunk),
				}
				if bcast {
					op.Src = uint32(src)
					g.Bcast = append(g.Bcast, op)
				} else {
					op.Src = uint32(src)&^63 | uint32(off-int(src&63))&63
					g.Ops = append(g.Ops, op)
				}
			})
		}
	}
	return g
}

// sortLanes orders a combinational batch's cells by fan-in position so
// that gather programs compress well: bus-shaped fan-in becomes one
// consecutive run per pin, shared fan-in one broadcast run. Mux banks
// sort by data pins (the select is usually one shared net).
func (p *PackedPlan) sortLanes(n *Netlist, kind cell.Kind, cs []CellID) {
	pinOrder := [3]int{0, 1, 2}
	if kind == cell.Mux2 {
		pinOrder = [3]int{1, 2, 0} // (D0, D1, S)
	}
	nin := kind.NumInputs()
	key := func(ci CellID) [3]int32 {
		var k [3]int32
		for i := 0; i < nin; i++ {
			k[i] = p.Pos[n.cells[ci].In[pinOrder[i]]]
		}
		return k
	}
	sort.SliceStable(cs, func(a, b int) bool {
		ka, kb := key(cs[a]), key(cs[b])
		for i := 0; i < nin; i++ {
			if ka[i] != kb[i] {
				return ka[i] < kb[i]
			}
		}
		return false
	})
}

// forEachRun run-length compresses a pin's lane positions, chunk by
// 64-lane chunk: maximal runs of consecutive source positions become
// one copy each, split where they cross a source word so a copy reads
// one word; maximal runs of a repeated position, when longer, become
// one broadcast. f receives the chunk, the first lane's offset in it,
// the run length and the first (or only) source position.
func forEachRun(in []int32, f func(chunk, off, n int, src int32, bcast bool)) {
	for lo := 0; lo < len(in); lo += 64 {
		hi := min(lo+64, len(in))
		for i := lo; i < hi; {
			consec, rep := i+1, i+1
			for consec < hi && in[consec] == in[consec-1]+1 && in[consec]&63 != 0 {
				consec++
			}
			for rep < hi && in[rep] == in[i] {
				rep++
			}
			if rep > consec {
				f(lo/64, i-lo, rep-i, in[i], true)
				i = rep
			} else {
				f(lo/64, i-lo, consec-i, in[i], false)
				i = consec
			}
		}
	}
}
