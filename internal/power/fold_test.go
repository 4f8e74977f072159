package power

import (
	"reflect"
	"testing"

	"repro/internal/netlist"
)

// FuzzScopeFold checks the Best/TopK fold on its own, with no simulator:
// a stream of (power, fetch) observations folded once as a whole must
// equal the same stream cut into tree segments grouped into tasks, folded
// one scope at a time, flushed as candidates and replayed in canonical
// order — the same Best (the first cycle attaining the maximum, with its
// cell list) and the same TopK entries in the same order. Powers and fetch
// addresses come from small alphabets so ties occur. Tasks are folded in
// canonical or reverse order, and the shared floor starts at zero or at
// one of the stream's powers, so the floor a scope sees may come from
// canonically later work, as it does across workers.
//
// A scope ends at every task boundary and at a flushed segment boundary.
// A segment that starts without a flush keeps the scope open, as the
// depth-first walk of a canonical worker does. Every new segment rewinds
// the position (a resumed fork), so within one scope positions jump back
// while stream indices keep rising; each flushed candidate must name its
// own observation by (task, stream).
//
// head: bits 0-1 pick k in 1..4, bit 2 seeds the floor, bits 3-6 pick
// the observation whose power seeds it, bit 7 reverses the task order.
// shape: bit 0 makes each task one scope (no segment boundary flushes).
// Each byte of obs is one observation: bits 0-2 the power, bits 3-4 the
// fetch address and, at a new segment, the rewind depth less one, bits
// 5-7 a cut before it (4: new segment in the same scope, 5: new segment
// and scope, 6-7: new task).
func FuzzScopeFold(f *testing.F) {
	f.Add(byte(0x03), byte(0), []byte{0x01, 0x0a, 0xa4, 0x12, 0xc4, 0x04, 0x1b, 0xe3, 0x02, 0xa9})
	f.Add(byte(0x8f), byte(0), []byte{0x04, 0x0c, 0xd4, 0x14, 0xb4, 0xe4, 0x1c, 0x04, 0xa0, 0xc8, 0x1b})
	f.Add(byte(0x55), byte(0), []byte{0x02, 0x02, 0xc2, 0xa2, 0x1a, 0xda, 0x0b, 0x13})
	// One scope across rewinds: depth-first segments of one task.
	f.Add(byte(0x02), byte(0), []byte{0x01, 0x04, 0x13, 0x0a, 0x99, 0x02, 0x84, 0x1c, 0x91, 0x04, 0xa2, 0x83})
	// Each task one scope, tasks folded in reverse order.
	f.Add(byte(0x81), byte(1), []byte{0x03, 0x0b, 0xa4, 0x12, 0xc4, 0x9c, 0x04, 0xb3, 0xe2, 0x94, 0x0c})
	f.Fuzz(func(t *testing.T, head, shape byte, obs []byte) {
		if len(obs) > 512 {
			obs = obs[:512]
		}
		k := 1 + int(head&3)
		n := len(obs)
		ps := make([]float64, n)
		fetch := make([]uint16, n)
		for i, b := range obs {
			ps[i] = float64(1 + b&7%5)
			fetch[i] = uint16(b >> 3 & 3)
		}

		// Cut the stream: segments in canonical order, grouped into tasks
		// of consecutive segments, each segment starting at a position
		// that rewinds from where the previous one ended.
		type segment struct {
			start, end int
			flush      bool
		}
		var segs []segment
		var tasks [][]int // segment indices per task
		pos := make([]int, n)
		taskBase, cur := 0, 0
		for i, b := range obs {
			switch cut := b >> 5; {
			case i == 0 || cut >= 6:
				tasks = append(tasks, nil)
				taskBase = cur
			case cut == 4 || cut == 5:
				cur = max(taskBase, cur-1-int(b>>3&3))
			default:
				segs[len(segs)-1].end = i + 1
				pos[i], cur = cur, cur+1
				continue
			}
			tasks[len(tasks)-1] = append(tasks[len(tasks)-1], len(segs))
			segs = append(segs, segment{start: i, end: i + 1, flush: b>>5 == 5 && shape&1 == 0})
			pos[i], cur = cur, cur+1
		}
		mk := func(i int) func(cells bool) Peak {
			return func(cells bool) Peak {
				pk := Peak{PowerMW: ps[i], PathPos: pos[i], FetchAddr: fetch[i]}
				if cells {
					pk.ActiveCells = []netlist.CellID{netlist.CellID(i)}
				}
				return pk
			}
		}

		whole := &Sink{k: k, topkStream: map[uint16]int{}}
		for i := range ps {
			whole.stream++
			whole.observe(ps[i], fetch[i], mk(i))
		}

		shared := NewShared()
		if head&4 != 0 && n > 0 {
			shared.raise(ps[int(head>>3&15)%n])
		}
		cut := &Sink{k: k, topkStream: map[uint16]int{}}
		cut.EnableTasks(shared)
		scopes := 0
		for j := range tasks {
			task := j
			if head&0x80 != 0 {
				task = len(tasks) - 1 - j
			}
			first := segs[tasks[task][0]].start
			cut.BeginTask(task, pos[first], nil)
			scopes++
			for si, sg := range tasks[task] {
				if si > 0 {
					cut.Rewind(pos[segs[sg].start])
					if segs[sg].flush {
						cut.NewSegment()
						scopes++
					}
				}
				for i := segs[sg].start; i < segs[sg].end; i++ {
					if cut.Pos() != pos[i] {
						t.Fatalf("observation %d at position %d, want %d", i, cut.Pos(), pos[i])
					}
					cut.stream++
					cut.observe(ps[i], fetch[i], mk(i))
					cut.Trace = append(cut.Trace, ps[i])
					cut.fetches = append(cut.fetches, fetchCtx{})
					cut.isrDepth = append(cut.isrDepth, 0)
				}
			}
			cut.EndTask()
		}
		// A task's stream index is its observation index less the task's
		// first.
		for _, cs := range [][]PeakCand{cut.bestCands, cut.topkCands} {
			for _, c := range cs {
				i := segs[tasks[c.Task][0]].start + c.Stream
				if i < 0 || i >= n || c.Peak.PathPos != pos[i] || c.Peak.PowerMW != ps[i] || c.Peak.FetchAddr != fetch[i] {
					t.Fatalf("candidate %+v names task %d stream %d, not its observation", c.Peak, c.Task, c.Stream)
				}
			}
		}
		nodeID := func(task, stream int) int {
			id := -1
			for _, sg := range tasks[task] {
				if segs[sg].start-segs[tasks[task][0]].start <= stream {
					id = sg
				}
			}
			return id
		}
		best, topK := replay(cut.bestCands, cut.topkCands, k, nodeID)

		if !reflect.DeepEqual(best, whole.Best) {
			t.Fatalf("Best: segmented %+v, whole %+v", best, whole.Best)
		}
		if !reflect.DeepEqual(topK, whole.TopK) {
			t.Fatalf("TopK: segmented %+v, whole %+v", topK, whole.TopK)
		}
		if len(cut.bestCands) > scopes || len(cut.topkCands) > k*scopes {
			t.Fatalf("%d scopes flushed %d Best and %d TopK candidates", scopes, len(cut.bestCands), len(cut.topkCands))
		}
	})
}
