package power

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/netlist"
)

// FuzzScopeFold checks the peak fold on its own, with no simulator: a
// stream of (power, fetch) observations folded once as a whole must equal
// the same stream cut into tree segments grouped into tasks, folded one
// scope at a time, flushed as candidates and replayed in canonical order
// — the same TopK entries in the same order, headed by the same peak
// (the first cycle attaining the maximum, with its cell list). No entry
// past the head carries cells, and the whole fold's Best is its head.
// Powers and fetch
// addresses come from small alphabets so ties occur. Tasks are folded in
// canonical or reverse order, and the shared floors start empty or from
// the stream's own observations, so the floor a scope sees may come from
// canonically later work, as it does across workers.
//
// A scope ends at every task boundary and at a flushed segment boundary.
// A segment that starts without a flush keeps the scope open, as the
// depth-first walk of a canonical worker does. Every new segment rewinds
// the position (a resumed fork), so within one scope positions jump back
// while stream indices keep rising; each flushed candidate must name its
// own observation by (task, stream).
//
// After the first cut fold a second sink folds the tasks again, in
// reverse order, on the same Shared: a worker whose floors were raised by
// the whole run. Its replay must equal the whole fold too. The floors may
// only save work: the first cut fold must never materialize more peaks
// than the same fold with no Shared at all.
//
// head: bits 0-1 pick k in 1..4, bit 9 sets k to 0 (a list of one, the
// peak alone), bit 2 seeds the head floor with the picked observation,
// bits 3-6 pick it, bit 7 reverses the task order, bit 8 seeds the TopK
// floor with k observations at distinct addresses, the first at or after
// the picked one. shape: bit 0 makes
// each task one scope (no segment boundary flushes). Each byte of obs is
// one observation: bits 0-2 the power, bits 3-4 the fetch address and, at
// a new segment, the rewind depth less one, bits 5-7 a cut before it (4:
// new segment in the same scope, 5: new segment and scope, 6-7: new task).
func FuzzScopeFold(f *testing.F) {
	f.Add(uint16(0x03), byte(0), []byte{0x01, 0x0a, 0xa4, 0x12, 0xc4, 0x04, 0x1b, 0xe3, 0x02, 0xa9})
	f.Add(uint16(0x8f), byte(0), []byte{0x04, 0x0c, 0xd4, 0x14, 0xb4, 0xe4, 0x1c, 0x04, 0xa0, 0xc8, 0x1b})
	f.Add(uint16(0x55), byte(0), []byte{0x02, 0x02, 0xc2, 0xa2, 0x1a, 0xda, 0x0b, 0x13})
	// One scope across rewinds: depth-first segments of one task.
	f.Add(uint16(0x02), byte(0), []byte{0x01, 0x04, 0x13, 0x0a, 0x99, 0x02, 0x84, 0x1c, 0x91, 0x04, 0xa2, 0x83})
	// Each task one scope, tasks folded in reverse order.
	f.Add(uint16(0x81), byte(1), []byte{0x03, 0x0b, 0xa4, 0x12, 0xc4, 0x9c, 0x04, 0xb3, 0xe2, 0x94, 0x0c})
	// A TopK floor seeded from the stream, tasks folded in canonical order:
	// ties with the floor at other addresses, canonically earlier.
	f.Add(uint16(0x101), byte(0), []byte{0x04, 0x0c, 0xc4, 0x14, 0xdc, 0x1b, 0xe4, 0x0a, 0xa3, 0xcc, 0x14, 0x1c})
	// The same seeding, tasks folded in reverse order with a head floor:
	// the floor comes from canonically later tasks.
	f.Add(uint16(0x18e), byte(1), []byte{0x03, 0x0c, 0xd4, 0x1c, 0xe4, 0x0b, 0x14, 0xc3, 0x1c, 0x04, 0xe4, 0x0c, 0x13})
	// k = 0, a head floor seeded from a tied maximum, tasks in reverse
	// order: the peak alone, with ties across addresses and tasks.
	f.Add(uint16(0x2a4), byte(0), []byte{0x04, 0x0c, 0xd4, 0x1c, 0xe4, 0x0c, 0x14, 0xc4, 0x1b, 0x04, 0xa4, 0x0c})
	f.Fuzz(func(t *testing.T, head uint16, shape byte, obs []byte) {
		if len(obs) > 512 {
			obs = obs[:512]
		}
		k := 1 + int(head&3)
		if head&0x200 != 0 {
			k = 0
		}
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
		made := 0 // materializations
		mk := func(i int) func(cells bool) Peak {
			return func(cells bool) Peak {
				made++
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

		// foldCut folds every task, in canonical or reverse order, into a
		// new sink on sh (nil: no shared floors). It returns the sink,
		// its scope count and its materializations.
		foldCut := func(sh *Shared, reverse bool) (*Sink, int, int) {
			made = 0
			cut := &Sink{k: k, topkStream: map[uint16]int{}}
			cut.EnableTasks(sh)
			scopes := 0
			for j := range tasks {
				task := j
				if reverse {
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
			return cut, scopes, made
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
		if n > 0 && (len(whole.TopK) == 0 || !reflect.DeepEqual(whole.Best, whole.TopK[0])) {
			t.Fatalf("whole Best %+v is not the head of %+v", whole.Best, whole.TopK)
		}
		// check replays a cut fold's candidates against the whole fold.
		check := func(name string, cut *Sink, scopes int) {
			// A task's stream index is its observation index less the
			// task's first.
			for _, c := range cut.topkCands {
				i := segs[tasks[c.Task][0]].start + c.Stream
				if i < 0 || i >= n || c.Peak.PathPos != pos[i] || c.Peak.PowerMW != ps[i] || c.Peak.FetchAddr != fetch[i] {
					t.Fatalf("%s: candidate %+v names task %d stream %d, not its observation", name, c.Peak, c.Task, c.Stream)
				}
			}
			topK := replay(cut.topkCands, k, nodeID)
			if !reflect.DeepEqual(topK, whole.TopK) {
				t.Fatalf("%s TopK: segmented %+v, whole %+v", name, topK, whole.TopK)
			}
			for i := 1; i < len(topK); i++ {
				if topK[i].ActiveCells != nil {
					t.Fatalf("%s: entry %d past the head carries cells: %+v", name, i, topK[i])
				}
			}
			if len(cut.topkCands) > max(k, 1)*scopes {
				t.Fatalf("%s: %d scopes flushed %d candidates", name, scopes, len(cut.topkCands))
			}
		}

		shared := NewShared()
		if head&4 != 0 && n > 0 {
			i := int(head>>3&15) % n
			shared.noteTopK(k, fetch[i], ps[i])
		}
		if head&0x100 != 0 && n > 0 {
			seen := map[uint16]bool{}
			for j := 0; j < n && len(seen) < k; j++ {
				if i := (int(head>>3&15) + j) % n; !seen[fetch[i]] {
					seen[fetch[i]] = true
					shared.noteTopK(k, fetch[i], ps[i])
				}
			}
		}
		reverse := head&0x80 != 0
		cut, scopes, floored := foldCut(shared, reverse)
		check("cut", cut, scopes)
		if _, _, unfloored := foldCut(nil, reverse); floored > unfloored {
			t.Fatalf("the floored fold materialized %d peaks, the same fold without floors %d", floored, unfloored)
		}
		late, lateScopes, _ := foldCut(shared, true)
		check("late", late, lateScopes)
	})
}

// TestParallelTopKFloor folds one stream the way a multi-worker run does:
// the stream is cut into tasks of random length, each cut into scopes,
// and several sinks on goroutines take tasks in whatever order they get
// them, sharing one Shared. The canonical replay of all their candidates
// must equal the whole-stream fold, whichever worker raised the floors
// first. The floors themselves end deterministic: every entry of the
// final list was materialized by some scope, and no materialized record
// is above its address's maximum, so the highest noted power is the
// final peak and the k-th highest the final list's k-th. Under -race
// this also checks that the floors are safe to share.
func TestParallelTopKFloor(t *testing.T) {
	const workers = 4
	for round := range 12 {
		t.Run(fmt.Sprint(round), func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(round)))
			k := 1 + round%4
			n := 400
			ps := make([]float64, n)
			fetch := make([]uint16, n)
			// Address a's powers reach 6 + a/2 at most, so pairs of
			// addresses tie for the final list's last places.
			for i := range ps {
				fetch[i] = uint16(r.Intn(16))
				ps[i] = float64(1 + r.Intn(6+int(fetch[i])/2))
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
			whole := &Sink{k: k, topkStream: map[uint16]int{}}
			for i := range ps {
				whole.stream++
				whole.observe(ps[i], fetch[i], mk(i))
			}

			// Tasks are consecutive runs of the stream; a scope ends
			// after an observation with probability 1/8.
			var starts []int
			for i := 0; i < n; i += 1 + r.Intn(60) {
				starts = append(starts, i)
			}
			starts = append(starts, n)
			flush := make([]bool, n)
			for i := range flush {
				flush[i] = r.Intn(8) == 0
			}

			shared := NewShared()
			sinks := make([]*Sink, workers)
			var next atomic.Int64
			var wg sync.WaitGroup
			for w := range sinks {
				s := &Sink{k: k, topkStream: map[uint16]int{}}
				s.EnableTasks(shared)
				sinks[w] = s
				wg.Add(1)
				go func() {
					defer wg.Done()
					for task := int(next.Add(1) - 1); task < len(starts)-1; task = int(next.Add(1) - 1) {
						s.BeginTask(task, starts[task], nil)
						for i := starts[task]; i < starts[task+1]; i++ {
							s.stream++
							s.observe(ps[i], fetch[i], mk(i))
							if flush[i] {
								s.NewSegment()
							}
						}
						s.EndTask()
					}
				}()
			}
			wg.Wait()

			var cands []PeakCand
			for _, s := range sinks {
				cands = append(cands, s.topkCands...)
			}
			topK := replay(cands, k, func(task, stream int) int { return starts[task] + stream })
			if !reflect.DeepEqual(topK, whole.TopK) {
				t.Fatalf("TopK: parallel %+v, whole %+v", topK, whole.TopK)
			}
			if got, want := shared.topkFloor(), whole.TopK[k-1].PowerMW; got != want {
				t.Fatalf("TopK floor %v, want the final list's k-th power %v", got, want)
			}
			if got, want := shared.headFloor(), whole.TopK[0].PowerMW; got != want {
				t.Fatalf("head floor %v, want the final peak %v", got, want)
			}
		})
	}
}
