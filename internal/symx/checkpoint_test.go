package symx

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cell"
	"repro/internal/faultfs"
	"repro/internal/isa"
	"repro/internal/periph"
	"repro/internal/ulp430"
)

// countCodec serializes workerCountSink's journal-crossing values: seeds
// are always nil and segment payloads are []uint16 PC traces.
type countCodec struct{}

func (countCodec) MarshalSeed(seed interface{}) ([]byte, error) {
	if seed != nil {
		return nil, fmt.Errorf("countCodec: unexpected seed %T", seed)
	}
	return nil, nil
}

func (countCodec) UnmarshalSeed(data []byte) (interface{}, error) {
	if len(data) != 0 {
		return nil, fmt.Errorf("countCodec: unexpected seed bytes")
	}
	return nil, nil
}

func (countCodec) MarshalPayload(data interface{}) ([]byte, error) {
	pcs, ok := data.([]uint16)
	if !ok && data != nil {
		return nil, fmt.Errorf("countCodec: unexpected payload %T", data)
	}
	return json.Marshal(pcs)
}

func (countCodec) UnmarshalPayload(data []byte) (interface{}, error) {
	var pcs []uint16
	if err := json.Unmarshal(data, &pcs); err != nil {
		return nil, err
	}
	return pcs, nil
}

// exploreCkpt runs a checkpointed ExploreParallel over src.
func exploreCkpt(t *testing.T, src string, irq *periph.Config, workers int, ck *Checkpointer, opts Options) (*ParallelResult, error) {
	t.Helper()
	img, err := isa.Assemble("t", src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return ExploreParallel(ParallelOptions{
		Options:    opts,
		Workers:    workers,
		Checkpoint: ck,
		NewWorker: func(worker int) (*ulp430.System, WorkerSink, error) {
			sys, err := ulp430.NewSystem(sharedCPU(t), cell.ULP65(), img, ulp430.SymbolicInputs, nil)
			if err != nil {
				return nil, nil, err
			}
			if irq != nil {
				sys.EnableInterrupts(*irq)
			}
			return sys, &workerCountSink{}, nil
		},
	})
}

func testCkpt(path string, fs faultfs.FS) *Checkpointer {
	return NewCheckpointer(CheckpointConfig{
		Path: path, Tag: "test-tag", Codec: countCodec{}, FS: fs, SyncEvery: 1,
	})
}

// cancelAtCycles builds Options whose progress callback cancels the run's
// context once the shared cycle counter reaches n — a deterministic-enough
// stand-in for a crash (workers notice within their next cancellation
// poll, and the journal keeps only what was already appended).
func cancelAtCycles(n int) Options {
	ctx, cancel := context.WithCancel(context.Background())
	return Options{
		Ctx:           ctx,
		ProgressEvery: 1,
		Progress: func(p Progress) {
			if p.Cycles >= n {
				cancel()
			}
		},
	}
}

// TestCheckpointFreshRunTreeMatchesSequential: turning checkpointing on
// (which publishes every fork instead of using worker-local stacks) must
// not perturb the assembled tree at any worker count.
func TestCheckpointFreshRunTreeMatchesSequential(t *testing.T) {
	for _, prog := range parallelTreePrograms {
		seq, _ := explore(t, prog.src, Options{})
		for _, w := range []int{1, 2, 4} {
			path := filepath.Join(t.TempDir(), "ckpt.jsonl")
			res, err := exploreCkpt(t, prog.src, nil, w, testCkpt(path, nil), Options{})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", prog.name, w, err)
			}
			requireTreesEqual(t, seq, res.Tree, fmt.Sprintf("%s ckpt workers=%d", prog.name, w))
			if _, err := os.Stat(path); err != nil {
				t.Fatalf("%s workers=%d: journal missing: %v", prog.name, w, err)
			}
		}
	}
}

// TestCheckpointFullReplay: resuming a COMPLETED journal re-executes
// nothing — the tree is reassembled purely from replayed records — and
// still matches the sequential result exactly, at any resuming worker
// count. Resuming twice from the same journal must also work (a resume of
// a complete journal appends nothing).
func TestCheckpointFullReplay(t *testing.T) {
	src := parallelTreePrograms[3].src // countedLoop: widest tree of the set
	seq, _ := explore(t, src, Options{})
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	if _, err := exploreCkpt(t, src, nil, 2, testCkpt(path, nil), Options{}); err != nil {
		t.Fatalf("recording run: %v", err)
	}
	for _, w := range []int{1, 4} {
		res, err := exploreCkpt(t, src, nil, w, testCkpt(path, nil), Options{})
		if err != nil {
			t.Fatalf("replay workers=%d: %v", w, err)
		}
		requireTreesEqual(t, seq, res.Tree, fmt.Sprintf("full replay workers=%d", w))
		if len(res.Replayed) == 0 {
			t.Fatalf("replay workers=%d: no replayed task records", w)
		}
	}
}

// TestCheckpointResumeAfterCancel: a run killed mid-exploration resumes
// from its journal and completes with the exact sequential tree.
func TestCheckpointResumeAfterCancel(t *testing.T) {
	src := parallelTreePrograms[3].src
	seq, _ := explore(t, src, Options{})
	for _, w := range []int{1, 2, 4} {
		path := filepath.Join(t.TempDir(), "ckpt.jsonl")
		_, err := exploreCkpt(t, src, nil, w, testCkpt(path, nil), cancelAtCycles(10))
		if err == nil {
			t.Fatalf("workers=%d: cancelled run did not fail", w)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: want context.Canceled, got %v", w, err)
		}
		res, err := exploreCkpt(t, src, nil, w, testCkpt(path, nil), Options{})
		if err != nil {
			t.Fatalf("workers=%d resume: %v", w, err)
		}
		requireTreesEqual(t, seq, res.Tree, fmt.Sprintf("resume workers=%d", w))
	}
}

// TestCheckpointMultiCrashResume: several crash/resume generations on one
// journal. This is the regression test for incarnation superseding — a
// task that crashed mid-flight in generation N re-runs in generation N+1
// and republishes its forks under fresh identities; the done record's
// explicit child naming must keep the stale generation-N children dead in
// every later generation, or subtrees get explored twice.
func TestCheckpointMultiCrashResume(t *testing.T) {
	src := parallelTreePrograms[3].src
	seq, _ := explore(t, src, Options{})
	for _, w := range []int{2, 4} {
		path := filepath.Join(t.TempDir(), "ckpt.jsonl")
		for gen, at := range []int{30, 60, 90} {
			_, err := exploreCkpt(t, src, nil, w, testCkpt(path, nil), cancelAtCycles(at))
			if err == nil {
				// The run got far enough to finish — fine, the remaining
				// generations become (partial) replays.
				continue
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("workers=%d gen=%d: want context.Canceled, got %v", w, gen, err)
			}
		}
		res, err := exploreCkpt(t, src, nil, w, testCkpt(path, nil), Options{})
		if err != nil {
			t.Fatalf("workers=%d final resume: %v", w, err)
		}
		requireTreesEqual(t, seq, res.Tree, fmt.Sprintf("multi-crash workers=%d", w))
	}
}

// TestCheckpointIRQResume: resume must round-trip full peripheral-bus
// state through the journaled portable snapshots, on a tree multiplied by
// symbolic interrupt arrival.
func TestCheckpointIRQResume(t *testing.T) {
	cfg := periph.Config{MinLatency: 6, MaxLatency: 14}
	seq := exploreIRQ(t, irqIdleProg, cfg, Options{})
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	if _, err := exploreCkpt(t, irqIdleProg, &cfg, 2, testCkpt(path, nil), cancelAtCycles(40)); err == nil {
		t.Skip("run completed before the injected cancel; nothing to resume")
	}
	res, err := exploreCkpt(t, irqIdleProg, &cfg, 2, testCkpt(path, nil), Options{})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	requireTreesEqual(t, seq, res.Tree, "irq resume")
}

// TestCheckpointTornTail: a journal cut off mid-record (the unsynced tail
// a SIGKILL loses) loads as its consistent prefix; the resumed run
// re-explores the lost suffix and the result is unchanged. The torn bytes
// are also physically dropped on resume, so the resumed run's own records
// stay readable.
func TestCheckpointTornTail(t *testing.T) {
	src := parallelTreePrograms[3].src
	seq, _ := explore(t, src, Options{})
	record := func(t *testing.T) (string, []byte) {
		path := filepath.Join(t.TempDir(), "ckpt.jsonl")
		if _, err := exploreCkpt(t, src, nil, 2, testCkpt(path, nil), Options{}); err != nil {
			t.Fatalf("recording run: %v", err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return path, data
	}

	// Truncate the journal at arbitrary byte offsets (usually mid-line).
	path, data := record(t)
	for _, frac := range []int{1, 3, 6, 9} {
		cut := len(data) * frac / 10
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		res, err := exploreCkpt(t, src, nil, 2, testCkpt(path, nil), Options{})
		if err != nil {
			t.Fatalf("cut=%d/10: resume: %v", frac, err)
		}
		requireTreesEqual(t, seq, res.Tree, fmt.Sprintf("torn tail cut=%d/10", frac))
	}

	// Garbage appended after valid records (a torn multi-record write).
	path, data = record(t)
	if err := os.WriteFile(path, append(data, []byte(`{"t":"pub","id":99,"par`)...), 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := exploreCkpt(t, src, nil, 2, testCkpt(path, nil), Options{})
	if err != nil {
		t.Fatalf("garbage tail: resume: %v", err)
	}
	requireTreesEqual(t, seq, res.Tree, "garbage tail")
	// The resume replays everything and appends nothing, so the file must
	// be exactly the original journal: the garbage tail physically gone.
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, data) {
		t.Fatal("torn tail survived the resume; later appends would be unreadable")
	}
}

// TestCheckpointTagMismatch: a journal recorded for a different analysis
// must refuse to resume rather than graft foreign state.
func TestCheckpointTagMismatch(t *testing.T) {
	src := parallelTreePrograms[1].src
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	if _, err := exploreCkpt(t, src, nil, 1, testCkpt(path, nil), Options{}); err != nil {
		t.Fatalf("recording run: %v", err)
	}
	other := NewCheckpointer(CheckpointConfig{Path: path, Tag: "other-tag", Codec: countCodec{}})
	_, err := exploreCkpt(t, src, nil, 1, other, Options{})
	if err == nil || !strings.Contains(err.Error(), "different analysis") {
		t.Fatalf("want tag-mismatch error, got %v", err)
	}
}

// TestCheckpointStaleStateFormat: a journal written before portable
// states became sparse diffs carries gzipped ups1 states. Resuming it
// must fail with an error naming the journal and the task whose state
// it cannot read — never panic, never restore a misread state.
func TestCheckpointStaleStateFormat(t *testing.T) {
	src := parallelTreePrograms[3].src
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	if _, err := exploreCkpt(t, src, nil, 1, testCkpt(path, nil), Options{}); err != nil {
		t.Fatalf("recording run: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var recs []*ckptRec
	for _, line := range bytes.SplitAfter(data, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		rec := &ckptRec{}
		if err := json.Unmarshal(line, rec); err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}

	// Rewrite every state in the old format, and drop the done record of
	// one stateful child of the root so resume must decode its state.
	root, victim := -1, -1
	for _, rec := range recs {
		if rec.T == "pub" && rec.Parent < 0 {
			root = rec.ID
		}
	}
	for _, rec := range recs {
		if rec.T != "pub" || len(rec.State) == 0 {
			continue
		}
		if victim < 0 && rec.Parent == root {
			victim = rec.ID
		}
		var z bytes.Buffer
		zw := gzip.NewWriter(&z)
		zw.Write([]byte("ups1"))
		zw.Write(rec.State[4:])
		zw.Close()
		rec.State = z.Bytes()
	}
	if victim < 0 {
		t.Fatal("the recorded journal has no stateful child of the root")
	}
	var out []byte
	for _, rec := range recs {
		if rec.T == "done" && rec.ID == victim {
			continue
		}
		line, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		out = append(append(out, line...), '\n')
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}

	_, err = exploreCkpt(t, src, nil, 1, testCkpt(path, nil), Options{})
	if err == nil {
		t.Fatal("resume from a journal of ups1 states succeeded")
	}
	for _, want := range []string{path, fmt.Sprintf("task %d state", victim), "bad magic"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("resume error %q does not contain %q", err, want)
		}
	}
}

// TestCheckpointDisableMergeRejected: checkpointing depends on state
// merging for its claim accounting; the combination must be refused.
func TestCheckpointDisableMergeRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	_, err := exploreCkpt(t, parallelTreePrograms[0].src, nil, 1, testCkpt(path, nil), Options{DisableMerge: true})
	if err == nil || !strings.Contains(err.Error(), "DisableMerge") {
		t.Fatalf("want DisableMerge rejection, got %v", err)
	}
}

// TestCheckpointWriteFaultDegrades: a journal write failure mid-run must
// not fail (or corrupt) the exploration — the run completes with the
// correct tree, the failure is latched on Err(), and the journal's intact
// prefix still resumes.
func TestCheckpointWriteFaultDegrades(t *testing.T) {
	src := parallelTreePrograms[3].src
	seq, _ := explore(t, src, Options{})
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	var cnt faultfs.Counter
	fs := faultfs.Hooked{Hook: func(op faultfs.Op, p string) error {
		if op == faultfs.OpWrite && cnt.Next(op) > 3 {
			return errors.New("injected: disk full")
		}
		return nil
	}}
	ck := testCkpt(path, fs)
	res, err := exploreCkpt(t, src, nil, 2, ck, Options{})
	if err != nil {
		t.Fatalf("faulted run failed: %v", err)
	}
	requireTreesEqual(t, seq, res.Tree, "faulted run")
	if ck.Err() == nil {
		t.Fatal("write fault not latched on Err()")
	}

	res, err = exploreCkpt(t, src, nil, 2, testCkpt(path, nil), Options{})
	if err != nil {
		t.Fatalf("resume from faulted journal: %v", err)
	}
	requireTreesEqual(t, seq, res.Tree, "resume from faulted journal")
}
