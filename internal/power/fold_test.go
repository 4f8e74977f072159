package power

import (
	"reflect"
	"testing"

	"repro/internal/netlist"
)

// FuzzScopeFold checks the Best/TopK fold on its own, with no simulator:
// a stream of (power, fetch) observations folded once as a whole must
// equal the same stream cut into tree segments grouped into tasks, each
// segment folded and flushed as candidates, and the candidates replayed
// in canonical order — the same Best (the first cycle attaining the
// maximum, with its cell list) and the same TopK entries in the same
// order. Powers and fetch addresses come from small alphabets so ties
// occur. Tasks are folded in canonical or reverse order, and the shared
// floor starts at zero or at one of the stream's powers, so the floor a
// segment sees may come from canonically later work, as it does across
// workers.
//
// head: bits 0-1 pick k in 1..4, bit 2 seeds the floor, bits 3-6 pick
// the observation whose power seeds it, bit 7 reverses the task order.
// Each byte of obs is one observation: bits 0-2 the power, bits 3-4 the
// fetch address, bits 5-7 a cut before it (5: new segment, 6-7: new
// task).
func FuzzScopeFold(f *testing.F) {
	f.Add(byte(0x03), []byte{0x01, 0x0a, 0xa4, 0x12, 0xc4, 0x04, 0x1b, 0xe3, 0x02, 0xa9})
	f.Add(byte(0x8f), []byte{0x04, 0x0c, 0xd4, 0x14, 0xb4, 0xe4, 0x1c, 0x04, 0xa0, 0xc8, 0x1b})
	f.Add(byte(0x55), []byte{0x02, 0x02, 0xc2, 0xa2, 0x1a, 0xda, 0x0b, 0x13})
	f.Fuzz(func(t *testing.T, head byte, obs []byte) {
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
		mk := func(i int) func(cells bool) Peak {
			return func(cells bool) Peak {
				pk := Peak{PowerMW: ps[i], PathPos: i, FetchAddr: fetch[i]}
				if cells {
					pk.ActiveCells = []netlist.CellID{netlist.CellID(i)}
				}
				return pk
			}
		}

		whole := &Sink{k: k}
		for i := range ps {
			whole.observe(ps[i], fetch[i], mk(i))
		}

		// Cut the stream: segments in canonical order, grouped into tasks
		// of consecutive segments.
		type segment struct{ task, start, end int }
		var segs []segment
		var tasks [][]int // segment indices per task
		for i, b := range obs {
			cut := b >> 5
			switch {
			case i == 0 || cut >= 6:
				tasks = append(tasks, nil)
			case cut == 5:
			default:
				segs[len(segs)-1].end = i + 1
				continue
			}
			tasks[len(tasks)-1] = append(tasks[len(tasks)-1], len(segs))
			segs = append(segs, segment{task: len(tasks) - 1, start: i, end: i + 1})
		}

		shared := NewShared()
		if head&4 != 0 && n > 0 {
			shared.raise(ps[int(head>>3&15)%n])
		}
		cut := &Sink{k: k}
		cut.EnableTasks(shared)
		for j := range tasks {
			task := j
			if head&0x80 != 0 {
				task = len(tasks) - 1 - j
			}
			base := segs[tasks[task][0]].start
			cut.BeginTask(task, base, nil)
			for si, sg := range tasks[task] {
				if si > 0 {
					cut.NewSegment()
				}
				for i := segs[sg].start; i < segs[sg].end; i++ {
					cut.stream++
					cut.observe(ps[i], fetch[i], mk(i))
					cut.Trace = append(cut.Trace, ps[i])
				}
			}
			cut.EndTask()
		}
		// A task's stream index is its position less the task's base.
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
		if len(cut.bestCands) > len(segs) || len(cut.topkCands) > k*len(segs) {
			t.Fatalf("%d segments flushed %d Best and %d TopK candidates", len(segs), len(cut.bestCands), len(cut.topkCands))
		}
	})
}
