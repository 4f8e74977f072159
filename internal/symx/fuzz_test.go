package symx

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/cell"
	"repro/internal/faultfs"
	"repro/internal/isa"
	"repro/internal/periph"
	"repro/internal/power"
	"repro/internal/ulp430"
)

// FuzzExplore cross-checks the production explorers against the
// reference explorer (ref_test.go) over generated programs and interrupt
// windows: Explore and ExploreParallel, both on memoized systems, must
// build the reference tree node for node (IDs, kinds, wiring, payloads,
// Paths, Cycles), and the full power reduction — Best, TopK, ISR peak,
// activity union — must agree exactly with the reference run's power
// sink. Budget exhaustion must produce the identical error. Snapshot
// double-frees are caught as a side effect: the free pool panics on a
// repeated put, and a pooled snapshot panics on Restore/CapturePortableAt
// (use after free), either of which fails the fuzz run;
// fuzzPoolInvariants then asserts the pool invariants explicitly on the
// fuzzed program's own state.
//
// The corpus entry layout: nIn selects 1-3 symbolic input words, t1/t2
// the two branch thresholds, lat/width the interrupt arrival window,
// workers the parallel worker count (1-4), useIRQ switches between the
// branchy arithmetic program and the interrupt-driven idle program.
// testdata/fuzz/FuzzExplore keeps inputs that once failed; go test
// replays them.
func FuzzExplore(f *testing.F) {
	f.Add(uint8(2), uint8(40), uint8(60), uint8(6), uint8(8), uint8(2), false)
	f.Add(uint8(3), uint8(50), uint8(50), uint8(6), uint8(8), uint8(3), false)
	f.Add(uint8(1), uint8(0), uint8(255), uint8(3), uint8(1), uint8(4), true)
	f.Add(uint8(2), uint8(7), uint8(130), uint8(15), uint8(11), uint8(2), true)
	f.Add(uint8(1), uint8(200), uint8(10), uint8(1), uint8(0), uint8(1), false)

	f.Fuzz(func(t *testing.T, nIn, t1, t2, lat, width, workers uint8, useIRQ bool) {
		n := int(nIn)%3 + 1
		w := int(workers)%4 + 1
		var src string
		var irq *periph.Config
		if useIRQ {
			src = irqIdleProg
			minLat := int(lat)%20 + 1
			cfg := periph.Config{MinLatency: minLat, MaxLatency: minLat + int(width)%12}
			irq = &cfg
		} else {
			src = fmt.Sprintf(`
.org 0x0200
vals: .input %d
.org 0xf000
.entry main
main:
    mov #vals, r6
    mov #%d, r7
    clr r8
lp: mov @r6+, r4
    cmp #%d, r4
    jl skip1
    inc r8
skip1:
    cmp #%d, r4
    jeq skip2
    add r4, r8
skip2:
    dec r7
    jnz lp
`, n, n, int(t1), int(t2)) + haltSeq
		}
		img, err := isa.Assemble("fuzz", src)
		if err != nil {
			t.Fatalf("assemble: %v", err)
		}
		opts := Options{MaxCycles: 200_000, MaxNodes: 2_000}
		model := power.Model{Lib: cell.ULP65(), ClockHz: 100e6}
		const k = 4

		newSys := func(memo bool) *ulp430.System {
			sys, err := ulp430.NewSystem(sharedCPU(t), cell.ULP65(), img, ulp430.SymbolicInputs, nil)
			if err != nil {
				t.Fatal(err)
			}
			if irq != nil {
				sys.EnableInterrupts(*irq)
			}
			if memo {
				sys.Sim.EnableMemo(0)
			}
			return sys
		}

		refSys := newSys(false)
		refSink := power.NewSink(refSys, model, img, k)
		refTree, refErr := refExplore(refSys, refSink, opts)

		seqSys := newSys(true)
		seqSink := power.NewSink(seqSys, model, img, k)
		seqTree, seqErr := Explore(seqSys, seqSink, opts)

		shared := power.NewShared()
		sinks := make([]*power.Sink, w)
		pres, parErr := ExploreParallel(ParallelOptions{
			Options: opts,
			Workers: w,
			NewWorker: func(worker int) (*ulp430.System, WorkerSink, error) {
				wsys := newSys(true)
				wsink := power.NewSink(wsys, model, img, k)
				wsink.EnableTasks(shared)
				sinks[worker] = wsink
				return wsys, wsink, nil
			},
		})

		if refErr != nil || seqErr != nil || parErr != nil {
			for _, err := range []error{seqErr, parErr} {
				if refErr == nil || err == nil || err.Error() != refErr.Error() {
					t.Fatalf("error mismatch:\nref: %v\nseq: %v\npar: %v", refErr, seqErr, parErr)
				}
			}
			return
		}
		requireTreesEqual(t, refTree, seqTree, "Explore")
		requireTreesEqual(t, refTree, pres.Tree, fmt.Sprintf("workers=%d", w))

		stripCells := func(ps []power.Peak) []power.Peak {
			out := make([]power.Peak, len(ps))
			for i, p := range ps {
				p.ActiveCells = nil
				out[i] = p
			}
			return out
		}
		best, topK, isrPeak, union, err := power.MergeParallelReplay(sinks, k, pres.NodeID, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, got := range []struct {
			engine  string
			best    power.Peak
			topK    []power.Peak
			isrPeak float64
			union   []bool
		}{
			{"Explore", seqSink.Best, seqSink.TopK, seqSink.ISRPeakMW, seqSink.UnionActive},
			{"ExploreParallel", best, topK, isrPeak, union},
		} {
			if !reflect.DeepEqual(refSink.Best, got.best) {
				t.Fatalf("%s: Best mismatch:\nref: %+v\ngot: %+v", got.engine, refSink.Best, got.best)
			}
			if got.isrPeak != refSink.ISRPeakMW {
				t.Fatalf("%s: ISRPeakMW mismatch: ref %v got %v", got.engine, refSink.ISRPeakMW, got.isrPeak)
			}
			if !reflect.DeepEqual(stripCells(refSink.TopK), stripCells(got.topK)) {
				t.Fatalf("%s: TopK mismatch:\nref: %+v\ngot: %+v", got.engine, stripCells(refSink.TopK), stripCells(got.topK))
			}
			if !reflect.DeepEqual(refSink.UnionActive, got.union) {
				t.Fatalf("%s: activity union mismatch", got.engine)
			}
		}

		fuzzPoolInvariants(t, newSys(false))
	})
}

// fuzzPoolInvariants drives the fork-snapshot free pool directly on the
// fuzzed program's state, asserting the snapshot-reuse invariants the
// explorations above rely on implicitly:
//
//   - interleaved captures restore independently (a recycled
//     snapshot must not share plane words with a live capture),
//   - a snapshot returned to the pool refuses Restore (use after free),
//   - a repeated put panics (double free),
//   - a re-taken snapshot is fully usable again.
func fuzzPoolInvariants(t *testing.T, sys *ulp430.System) {
	t.Helper()
	sys.Reset()
	roll := &ulp430.SysSnapshot{}
	// step advances one cycle, resolving any symbolic fork the way the
	// engine does (restore + force not-taken) so the state stays valid.
	step := func() {
		if sys.Halted() {
			return
		}
		sys.SnapshotInto(roll)
		sys.Step()
		if sys.JumpCondUnknown() {
			sys.Restore(roll)
			sys.ForceBranch(false)
			sys.Step()
			sys.ClearForce()
		} else if sys.IRQCondUnknown() {
			sys.Restore(roll)
			sys.ForceIRQ(false)
			sys.Step()
			sys.ClearForce()
		}
	}
	for i := 0; i < 40; i++ {
		step()
	}

	var pool snapPool
	a := pool.take()
	sys.SnapshotInto(a)
	hashA, hashA2 := sys.StateKey()
	step()
	b := pool.take()
	sys.SnapshotInto(b)
	hashB, hashB2 := sys.StateKey()

	// Restores keep the LIFO discipline, newest first: restoring an
	// older capture rewinds the memory journal past the newer ones.
	sys.Restore(b)
	if lo, hi := sys.StateKey(); lo != hashB || hi != hashB2 {
		t.Fatal("pool: restoring capture B did not reproduce its state")
	}
	sys.Restore(a)
	if lo, hi := sys.StateKey(); lo != hashA || hi != hashA2 {
		t.Fatal("pool: restoring capture A after capturing B corrupted A (aliased snapshots)")
	}

	// Recycle A. Stepping is deterministic, so re-stepping from A makes
	// B valid again; one more cycle on, the reissued snapshot must
	// capture fresh state without disturbing the still-live B.
	pool.put(a)
	c := pool.take()
	step()
	if lo, hi := sys.StateKey(); lo != hashB || hi != hashB2 {
		t.Fatal("pool: re-stepping from capture A did not reach B's state")
	}
	step()
	sys.SnapshotInto(c)
	sys.Restore(b)
	if lo, hi := sys.StateKey(); lo != hashB || hi != hashB2 {
		t.Fatal("pool: capture into a recycled snapshot corrupted a live capture")
	}

	pool.put(b)
	mustPanic(t, "double free", func() { pool.put(b) })
	mustPanic(t, "use after free", func() { sys.Restore(b) })

	// Taking B back clears the pooled mark; it must be fully usable.
	d := pool.take()
	if d != b {
		t.Fatal("pool: expected LIFO reuse of the freed snapshot")
	}
	sys.SnapshotInto(d)
	sys.Restore(d)
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("pool: %s was not caught", what)
		}
	}()
	fn()
}

// journalFS serves one journal's bytes to Checkpointer.load, which only
// reads.
type journalFS struct {
	faultfs.OS
	data []byte
}

func (j journalFS) ReadFile(string) ([]byte, error) { return j.data, nil }

// powerJournal runs a checkpointed two-worker power analysis of one of
// the parallel tree programs and returns its journal, its worker sinks
// and its result: real records for the decoder fuzz targets to start
// from.
func powerJournal(f *testing.F, tag string) ([]byte, []*power.Sink, *ParallelResult) {
	img, err := isa.Assemble("t", parallelTreePrograms[3].src)
	if err != nil {
		f.Fatal(err)
	}
	model := power.Model{Lib: cell.ULP65(), ClockHz: 100e6}
	path := filepath.Join(f.TempDir(), "ckpt.jsonl")
	shared := power.NewShared()
	const workers = 2
	sinks := make([]*power.Sink, workers)
	pres, err := ExploreParallel(ParallelOptions{
		Workers:    workers,
		Checkpoint: NewCheckpointer(CheckpointConfig{Path: path, Tag: tag, Codec: power.Codec{}}),
		NewWorker: func(worker int) (*ulp430.System, WorkerSink, error) {
			sys, err := ulp430.NewSystem(sharedCPU(f), model.Lib, img, ulp430.SymbolicInputs, nil)
			if err != nil {
				return nil, nil, err
			}
			sink := power.NewSink(sys, model, img, 4)
			sink.EnableTasks(shared)
			sinks[worker] = sink
			return sys, sink, nil
		},
	})
	if err != nil {
		f.Fatal(err)
	}
	journal, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	return journal, sinks, pres
}

// FuzzCheckpointJournal feeds arbitrary bytes to a Checkpointer's journal
// load: each input must yield a resume state or an error, never a panic
// or a hang. A resume state's consistent prefix must end on a record
// boundary inside the input. The seeds are a real journal of a
// checkpointed two-worker power analysis and a torn copy of it.
func FuzzCheckpointJournal(f *testing.F) {
	const tag = "fuzz-journal"
	journal, _, _ := powerJournal(f, tag)
	load := func(data []byte) (*resumeState, error) {
		return NewCheckpointer(CheckpointConfig{Path: "journal", Tag: tag, Codec: power.Codec{}, FS: journalFS{data: data}}).load()
	}
	if rs, err := load(journal); err != nil || len(rs.pending) != 0 {
		f.Fatalf("the seed journal does not load as a complete run: %v", err)
	}
	f.Add(journal)
	f.Add(journal[:len(journal)/2])

	f.Fuzz(func(t *testing.T, data []byte) {
		rs, err := load(data)
		if err != nil {
			return
		}
		if rs == nil {
			t.Fatal("load returned neither a resume state nor an error")
		}
		if rs.prefixLen > len(data) || (rs.prefixLen > 0 && data[rs.prefixLen-1] != '\n') {
			t.Fatalf("consistent prefix %d does not end on a record boundary of the %d-byte input", rs.prefixLen, len(data))
		}
	})
}

// FuzzFleetRecords feeds arbitrary bytes to the two readers of fleet
// wire records: as RemoteTask JSON through decodeTask (what a worker
// does with a lease and the coordinator with a claim's child), and as
// RemoteResult JSON through power.MergeParallelReplay (what the seal
// does with a completed task's observations). Every input must yield a
// result or an error, never a panic or a hang. The seeds are the pub and
// done records of a real checkpointed power analysis, in wire form.
func FuzzFleetRecords(f *testing.F) {
	journal, sinks, pres := powerJournal(f, "fuzz-fleet")
	merge := func(rr *RemoteResult) error {
		_, _, _, _, err := power.MergeParallelReplay(sinks, 4, pres.NodeID, map[int][]byte{0: rr.Sink})
		return err
	}
	for _, line := range bytes.SplitAfter(journal, []byte("\n")) {
		rec := &ckptRec{}
		if len(line) == 0 || json.Unmarshal(line, rec) != nil {
			continue
		}
		var wire interface{}
		switch rec.T {
		case "pub":
			rt := RemoteTask{ID: rec.ID, BasePos: rec.BasePos, Forces: rec.ForkForces, Seed: rec.Seed, State: rec.State}
			if _, err := decodeTask(rt, power.Codec{}); err != nil {
				f.Fatalf("seed task %d does not decode: %v", rec.ID, err)
			}
			wire = rt
		case "done":
			rr := RemoteResult{Cycles: rec.Cycles, Nodes: rec.Nodes, Kids: rec.Kids, Sink: rec.Sink}
			if err := merge(&rr); err != nil {
				f.Fatalf("seed result of task %d does not merge: %v", rec.ID, err)
			}
			wire = rr
		default:
			continue
		}
		data, err := json.Marshal(wire)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var rt RemoteTask
		if json.Unmarshal(data, &rt) == nil {
			if pt, err := decodeTask(rt, power.Codec{}); err == nil && pt == nil {
				t.Fatal("decodeTask returned neither a task nor an error")
			}
		}
		var rr RemoteResult
		if json.Unmarshal(data, &rr) == nil {
			merge(&rr)
		}
	})
}
