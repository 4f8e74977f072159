package peakpower

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/power"
	"repro/internal/symx"
	"repro/internal/ulp430"
)

// TestExploreWorkersDeterminism is the package-level determinism stress
// suite for parallel exploration: the sealed Report — every byte of its
// canonical JSON, including the content hash — must not depend on the
// worker count. mult and tea8 exercise single-path reductions, adcSample
// and sensorDuty the interrupt-forking trees where work actually
// distributes across workers.
func TestExploreWorkersDeterminism(t *testing.T) {
	a := analyzer(t)
	for _, name := range []string{"mult", "tea8", "adcSample", "sensorDuty"} {
		t.Run(name, func(t *testing.T) {
			marshal := func(workers int) ([]byte, string) {
				t.Helper()
				res, err := a.AnalyzeBench(context.Background(), name, WithExploreWorkers(workers))
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if err := res.VerifyHash(); err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				data, err := res.Report.MarshalJSON()
				if err != nil {
					t.Fatal(err)
				}
				return data, res.Hash
			}
			ref, refHash := marshal(1)
			for _, w := range []int{2, 4, 8} {
				got, gotHash := marshal(w)
				if gotHash != refHash {
					t.Fatalf("workers=%d: hash %s differs from sequential %s", w, gotHash, refHash)
				}
				if !bytes.Equal(ref, got) {
					t.Fatalf("workers=%d: sealed report not byte-identical to sequential:\nseq: %.400s\npar: %.400s", w, ref, got)
				}
			}
		})
	}
}

// TestExploreWorkersMatchGolden closes the loop against the pinned wire
// format: a parallel analysis must reproduce the golden report files
// byte for byte — the goldens were generated sequentially, so this is
// determinism across engine generations, not just across runs.
func TestExploreWorkersMatchGolden(t *testing.T) {
	a := analyzer(t)
	for _, name := range goldenBenches {
		t.Run(name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", "report_"+name+".golden.json"))
			if err != nil {
				t.Fatalf("%v (regenerate with -update-golden)", err)
			}
			res, err := a.AnalyzeBench(context.Background(), name, WithCOI(4), WithExploreWorkers(4))
			if err != nil {
				t.Fatal(err)
			}
			got := marshalIndented(t, &res.Report)
			if !bytes.Equal(got, want) {
				t.Fatalf("parallel report for %s diverged from the sequentially generated golden file", name)
			}
		})
	}
}

// TestCacheKeyIgnoresExploreWorkers pins the cache-key contract stated
// on WithExploreWorkers: because the worker count cannot change the
// result, it must not partition the cache — a report computed at any
// worker count serves requests at every other.
func TestCacheKeyIgnoresExploreWorkers(t *testing.T) {
	a := analyzer(t)
	img, err := BenchImage("mult")
	if err != nil {
		t.Fatal(err)
	}
	ref := a.cacheKey(img, a.resolve([]Option{WithExploreWorkers(1)}))
	for _, w := range []int{2, 8, 64} {
		if key := a.cacheKey(img, a.resolve([]Option{WithExploreWorkers(w)})); key != ref {
			t.Fatalf("cache key depends on the explore worker count (%d): %s vs %s", w, key, ref)
		}
	}
	// Sanity: the key is not blind to options in general.
	if key := a.cacheKey(img, a.resolve([]Option{WithCOI(3)})); key == ref {
		t.Fatal("cache key ignored an option that changes the result")
	}
}

// TestCacheSharedAcrossWorkerCounts is the end-to-end consequence: an
// entry populated by a parallel analysis is hit by a sequential request
// for the same image and options.
func TestCacheSharedAcrossWorkerCounts(t *testing.T) {
	a := analyzer(t)
	cache := NewCache(4)
	ctx := context.Background()
	first, err := a.AnalyzeBench(ctx, "mult", WithCache(cache), WithExploreWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	second, err := a.AnalyzeBench(ctx, "mult", WithCache(cache), WithExploreWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("cache stats after cross-worker-count reuse: hits=%d misses=%d, want 1/1", st.Hits, st.Misses)
	}
	if first.Hash != second.Hash {
		t.Fatalf("cached result hash changed across worker counts: %s vs %s", first.Hash, second.Hash)
	}
}

// TestOneWorkerFoldsOneScope pins that the single reduction path costs a
// one-worker analysis without a journal nothing: its fork host is
// canonical, so the runner never ends the sink's fold scope inside the
// run, and the sink flushes one TopK list of at most k candidates whose
// head, the peak, alone carries its cells — exactly the peaks a whole-run
// fold materializes. In that run the root task is the whole exploration,
// so MarshalTask lists every candidate. Every app forks, sensorDuty on
// interrupt arrival.
func TestOneWorkerFoldsOneScope(t *testing.T) {
	a := analyzer(t)
	for _, name := range []string{"binSearch", "rle", "tHold", "PI", "sensorDuty"} {
		t.Run(name, func(t *testing.T) {
			p, err := a.PlanBench(name)
			if err != nil {
				t.Fatal(err)
			}
			var sink *power.Sink
			res, err := symx.ExploreParallel(symx.ParallelOptions{
				Options: p.ExploreOptions(context.Background()),
				Workers: 1,
				NewWorker: func(int) (*ulp430.System, symx.WorkerSink, error) {
					sys, s, err := p.newWorker(power.NewShared())
					sink = s
					return sys, s, err
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Tree.Paths < 2 {
				t.Fatalf("%d path: no fork to end a scope at", res.Tree.Paths)
			}
			blob, err := sink.MarshalTask()
			if err != nil {
				t.Fatal(err)
			}
			var rec struct {
				TopK []struct {
					Cells []int32 `json:"cells"`
				} `json:"topk"`
			}
			if err := json.Unmarshal(blob, &rec); err != nil {
				t.Fatal(err)
			}
			if len(rec.TopK) == 0 || len(rec.TopK) > p.cfg.coiK {
				t.Fatalf("one-worker run flushed %d TopK candidates, want 1 to %d", len(rec.TopK), p.cfg.coiK)
			}
			for i, c := range rec.TopK {
				if (i == 0) != (len(c.Cells) > 0) {
					t.Fatalf("candidate %d has %d cells; want cells on the head alone", i, len(c.Cells))
				}
			}
		})
	}
}
