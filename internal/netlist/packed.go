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
// batches), which the per-batch gather programs exploit: each input pin
// vector is run-length compressed into GatherRun chunk copies instead
// of per-bit extraction.
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
	// Levels holds per-topological-level combinational batches.
	Levels []PackedLevel
}

// PackedLevel is one topological level of combinational batches.
type PackedLevel struct {
	// Batches are the level's same-kind cell groups.
	Batches []PackedBatch
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
	// In holds, per used input pin, the plane position of each lane's
	// input net (lane-indexed); unused pin slots are nil. Diagnostics
	// and tests walk these; value evaluation uses the gather programs.
	In [3][]int32
	// Gather holds, per used input pin, the run-length-compressed
	// gather program per 64-lane chunk: Gather[pin][chunk] assembles
	// the chunk's input word from consecutive-source-bit runs.
	// Broadcast runs are split into GatherB so the executor loops stay
	// branch-free.
	Gather [3][][]GatherRun
	// GatherB holds the broadcast runs (one source bit replicated into
	// N lanes), per pin per chunk; nil when a chunk has none.
	GatherB [3][][]GatherRun
}

// Chunks returns the number of 64-lane chunks in the batch.
func (b *PackedBatch) Chunks() int { return (len(b.Cells) + 63) / 64 }

// GatherRun copies N plane bits into a chunk word at bit offset Off.
// Consecutive runs copy bits [Src, Src+N); broadcast runs replicate the
// single bit Src into N lanes (shared fan-in, e.g. one select net
// driving a whole mux bank). Runs never span chunk boundaries.
type GatherRun struct {
	// Src is the first (or only, for broadcast) source plane bit.
	Src int32
	// Off is the destination bit offset within the chunk word.
	Off uint8
	// N is the run length in bits (1..64).
	N uint8
	// Bcast marks a broadcast run.
	Bcast bool
}

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
	for bi := range p.Seq {
		p.finishBatch(n, &p.Seq[bi])
	}
	for li := range p.Levels {
		lv := &p.Levels[li]
		for bi := range lv.Batches {
			p.finishBatch(n, &lv.Batches[bi])
		}
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

// finishBatch fills a batch's input-pin position vectors and gather
// programs.
func (p *PackedPlan) finishBatch(n *Netlist, b *PackedBatch) {
	lanes := len(b.Cells)
	for pin := 0; pin < b.Kind.NumInputs(); pin++ {
		in := make([]int32, lanes)
		for i, ci := range b.Cells {
			in[i] = p.Pos[n.cells[ci].In[pin]]
		}
		b.In[pin] = in
		b.Gather[pin], b.GatherB[pin] = compileGather(in)
	}
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

// compileGather run-length compresses a pin's lane positions into per-
// chunk copy programs: maximal runs of consecutive (or repeated) source
// positions become one multi-bit extraction (or broadcast) each,
// emitted into separate consecutive/broadcast lists.
func compileGather(in []int32) (consecs, bcasts [][]GatherRun) {
	chunks := (len(in) + 63) / 64
	consecs = make([][]GatherRun, chunks)
	bcasts = make([][]GatherRun, chunks)
	for c := 0; c < chunks; c++ {
		lo := c * 64
		hi := min(lo+64, len(in))
		for i := lo; i < hi; {
			consec, rep := i+1, i+1
			for consec < hi && in[consec] == in[consec-1]+1 {
				consec++
			}
			for rep < hi && in[rep] == in[i] {
				rep++
			}
			r := GatherRun{Src: in[i], Off: uint8(i - lo)}
			if rep > consec {
				r.N, r.Bcast = uint8(rep-i), true
				bcasts[c] = append(bcasts[c], r)
				i = rep
			} else {
				r.N = uint8(consec - i)
				consecs[c] = append(consecs[c], r)
				i = consec
			}
		}
	}
	return consecs, bcasts
}
