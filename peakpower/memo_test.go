package peakpower

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/symx"
)

// These tests pin the memoization soundness contract (DESIGN.md,
// "Memoization soundness"): whole-step replay is a pure
// engine-internal speedup, so the sealed Report must be byte-identical
// with memo on or off, at any worker count, across a crash/resume, and
// when the exploration is distributed over a fleet. The existing golden
// files were generated before memoization existed, which makes them the
// ground truth both modes must reproduce.

// TestMemoDeterminism: a loop-heavy analysis with memoization enabled
// seals the same bytes as the memo-off baseline at every worker count,
// and actually exercises the cache — a suite where the memo never fires
// would vacuously pass the identity checks. Lookups happen at every
// worker count; hits are asserted only at one worker, because with more
// workers each simulator has its own table and probation window, and
// whether any of them ever hits depends on how the scheduler spreads the
// tree.
func TestMemoDeterminism(t *testing.T) {
	a := analyzer(t)
	ctx := context.Background()
	base, err := a.AnalyzeBench(ctx, "tHold", WithMemo(false), WithExploreWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	want := reportBytes(t, &base.Report)
	if base.MemoHits != 0 || base.MemoMisses != 0 {
		t.Fatalf("memo-off run reports memo traffic: hits=%d misses=%d", base.MemoHits, base.MemoMisses)
	}

	for _, w := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			res, err := a.AnalyzeBench(ctx, "tHold", WithMemo(true), WithExploreWorkers(w))
			if err != nil {
				t.Fatal(err)
			}
			if got := reportBytes(t, &res.Report); !bytes.Equal(got, want) {
				t.Fatalf("memoized report differs from memo-off baseline")
			}
			if res.Hash != base.Hash {
				t.Fatalf("memoized hash %s != baseline %s", res.Hash, base.Hash)
			}
			if res.MemoHits+res.MemoMisses == 0 {
				t.Fatalf("memo never consulted on tHold: hits=%d misses=%d", res.MemoHits, res.MemoMisses)
			}
			if w == 1 && res.MemoHits == 0 {
				t.Fatalf("memo never hit on tHold: hits=%d misses=%d", res.MemoHits, res.MemoMisses)
			}
		})
	}
}

// TestMemoOffMatchesGoldens: the golden report files predate the
// memoization layer, and TestReportGolden already replays them with the
// memo on (the default). This is the other half: disabling the memo must
// reproduce the same pinned bytes, so the two modes are provably
// interchangeable against the committed ground truth.
func TestMemoOffMatchesGoldens(t *testing.T) {
	for _, name := range goldenBenches {
		t.Run(name, func(t *testing.T) {
			res, err := analyzer(t).AnalyzeBench(context.Background(), name, WithCOI(4), WithMemo(false))
			if err != nil {
				t.Fatal(err)
			}
			got := marshalIndented(t, &res.Report)
			want, err := os.ReadFile(filepath.Join("testdata", "report_"+name+".golden.json"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("memo-off report for %s diverged from the golden file", name)
			}
		})
	}
}

// TestMemoCheckpointResume: an analysis killed mid-exploration and
// resumed from its journal, with memoization enabled on both
// incarnations, seals the memo-off baseline bytes. The resumed process
// starts with a cold memo whose hit/miss pattern differs from the
// uninterrupted run — the Report must not notice.
func TestMemoCheckpointResume(t *testing.T) {
	a := analyzer(t)
	img, err := Assemble("ckpt", ckptTestApp)
	if err != nil {
		t.Fatal(err)
	}
	base, err := a.AnalyzeImage(context.Background(), img, WithMemo(false))
	if err != nil {
		t.Fatal(err)
	}
	want := reportBytes(t, &base.Report)

	path := filepath.Join(t.TempDir(), "job.ckpt")
	ctx, cancel := context.WithCancel(context.Background())
	_, err = a.AnalyzeImage(ctx, img,
		WithMemo(true), WithCheckpoint(path), WithExploreWorkers(2),
		WithProgress(func(p Progress) {
			if p.Cycles >= 40 {
				cancel()
			}
		}, 1))
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if _, serr := os.Stat(path); serr != nil {
		t.Fatalf("no journal after crash: %v", serr)
	}

	res, err := a.AnalyzeImage(context.Background(), img,
		WithMemo(true), WithCheckpoint(path), WithExploreWorkers(2))
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if got := reportBytes(t, &res.Report); !bytes.Equal(got, want) {
		t.Fatal("memoized resume differs from the memo-off uninterrupted baseline")
	}
}

// TestMemoFleetTwoWorkers: the exploration distributed over two fleet
// workers — each with its own private System and memo cache — fills a
// journal whose ordinary local seal reproduces the memo-off baseline
// bytes. This drives symx.RemoteQueue directly, the same scheduler the
// HTTP coordinator wraps.
func TestMemoFleetTwoWorkers(t *testing.T) {
	a := analyzer(t)
	img, err := Assemble("ckpt", ckptTestApp)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	base, err := a.AnalyzeImage(ctx, img, WithMemo(false))
	if err != nil {
		t.Fatal(err)
	}
	want := reportBytes(t, &base.Report)

	plan := a.PlanImage(img, WithMemo(true))
	path := filepath.Join(t.TempDir(), "job.ckpt")
	q, err := symx.OpenRemoteQueue(symx.CheckpointConfig{
		Path:  path,
		Tag:   plan.Key(),
		Codec: plan.Codec(),
	}, plan.ExploreOptions(ctx))
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sys, sink, err := plan.NewWorker()
			if err != nil {
				q.Fail(err)
				return
			}
			for {
				task, baseCycles, baseNodes, ok := q.Lease()
				if !ok {
					if q.Err() != nil || q.Done() {
						return
					}
					time.Sleep(time.Millisecond)
					continue
				}
				res, err := symx.RunRemoteTask(sys, sink, plan.ExploreOptions(ctx), plan.Codec(), task, q, baseCycles, baseNodes)
				if err != nil {
					if errors.Is(err, symx.ErrStaleTask) {
						continue
					}
					q.Fail(err)
					return
				}
				if _, err := q.Complete(task.ID, res); err != nil && !errors.Is(err, symx.ErrStaleTask) {
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := q.Err(); err != nil {
		t.Fatalf("fleet exploration: %v", err)
	}
	if !q.Done() {
		t.Fatal("fleet exploration left live tasks")
	}
	q.Close()

	// The ordinary checkpoint seal replays the fleet-filled journal
	// without executing anything.
	res, err := a.AnalyzeImage(ctx, img, WithMemo(true), WithCheckpoint(path))
	if err != nil {
		t.Fatalf("seal: %v", err)
	}
	if got := reportBytes(t, &res.Report); !bytes.Equal(got, want) {
		t.Fatal("fleet-explored report differs from the memo-off single-process baseline")
	}
}

// TestCacheKeyIgnoresMemo: memoization cannot change the result, so it
// must not partition the analysis cache — both modes hit the same entry.
func TestCacheKeyIgnoresMemo(t *testing.T) {
	a := analyzer(t)
	img, err := BenchImage("mult")
	if err != nil {
		t.Fatal(err)
	}
	on := a.cacheKey(img, a.resolve([]Option{WithMemo(true)}))
	off := a.cacheKey(img, a.resolve([]Option{WithMemo(false)}))
	if on != off {
		t.Fatalf("cache key depends on the memo mode: %s vs %s", on, off)
	}
}
