package peakpower

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// ckptTestApp forks enough (a 3-input classify loop) that a mid-run
// cancellation reliably lands before exploration finishes.
const ckptTestApp = `
.org 0x0200
vals: .input 3
cnt:  .space 1
.org 0xf000
.entry main
main:
    mov #0x0080, &0x0120
    mov #0x0a00, sp
    mov #vals, r6
    mov #3, r7
    clr r8
lp: mov @r6+, r4
    cmp #50, r4
    jl small
    inc r8
small:
    dec r7
    jnz lp
    mov r8, &cnt
    mov #1, &0x0126
spin: jmp spin
`

func reportBytes(t *testing.T, r *Report) []byte {
	t.Helper()
	data, err := r.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestCheckpointedAnalysisMatchesBaseline: turning checkpointing on must
// not perturb the sealed Report — byte-identical JSON at any worker count
// — and a successful analysis removes its journal.
func TestCheckpointedAnalysisMatchesBaseline(t *testing.T) {
	a, err := New()
	if err != nil {
		t.Fatal(err)
	}
	img, err := Assemble("ckpt", ckptTestApp)
	if err != nil {
		t.Fatal(err)
	}
	base, err := a.AnalyzeImage(context.Background(), img)
	if err != nil {
		t.Fatal(err)
	}
	want := reportBytes(t, &base.Report)
	for _, w := range []int{1, 2} {
		path := filepath.Join(t.TempDir(), "job.ckpt")
		res, err := a.AnalyzeImage(context.Background(), img,
			WithCheckpoint(path), WithExploreWorkers(w))
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if got := reportBytes(t, &res.Report); !bytes.Equal(got, want) {
			t.Fatalf("workers=%d: checkpointed report differs from baseline", w)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("workers=%d: journal not removed after success (stat err %v)", w, err)
		}
	}
}

// TestCheckpointResumeSealsIdenticalReport is the crash-recovery
// determinism contract end to end: an analysis killed mid-exploration and
// resumed from its journal seals a Report BYTE-IDENTICAL to an
// uninterrupted run, at multiple worker counts.
func TestCheckpointResumeSealsIdenticalReport(t *testing.T) {
	a, err := New()
	if err != nil {
		t.Fatal(err)
	}
	img, err := Assemble("ckpt", ckptTestApp)
	if err != nil {
		t.Fatal(err)
	}
	base, err := a.AnalyzeImage(context.Background(), img)
	if err != nil {
		t.Fatal(err)
	}
	want := reportBytes(t, &base.Report)

	for _, w := range []int{1, 2} {
		path := filepath.Join(t.TempDir(), "job.ckpt")
		ctx, cancel := context.WithCancel(context.Background())
		_, err := a.AnalyzeImage(ctx, img,
			WithCheckpoint(path), WithExploreWorkers(w),
			WithProgress(func(p Progress) {
				if p.Cycles >= 40 {
					cancel()
				}
			}, 1))
		cancel()
		if err == nil {
			t.Fatalf("workers=%d: cancelled analysis did not fail", w)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: want context.Canceled, got %v", w, err)
		}
		if _, serr := os.Stat(path); serr != nil {
			t.Fatalf("workers=%d: no journal after crash: %v", w, serr)
		}

		res, err := a.AnalyzeImage(context.Background(), img,
			WithCheckpoint(path), WithExploreWorkers(w))
		if err != nil {
			t.Fatalf("workers=%d resume: %v", w, err)
		}
		if got := reportBytes(t, &res.Report); !bytes.Equal(got, want) {
			t.Fatalf("workers=%d: resumed report differs from uninterrupted baseline", w)
		}
		if res.Hash != base.Hash {
			t.Fatalf("workers=%d: resumed hash %s != baseline %s", w, res.Hash, base.Hash)
		}
	}
}

// TestCheckpointForeignJournalRefused: a journal recorded for a different
// analysis (different image content under the same path) must fail the
// analysis rather than resume from foreign state.
func TestCheckpointForeignJournalRefused(t *testing.T) {
	a, err := New()
	if err != nil {
		t.Fatal(err)
	}
	img, err := Assemble("ckpt", ckptTestApp)
	if err != nil {
		t.Fatal(err)
	}
	other, err := Assemble("other", cacheTestApp)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "job.ckpt")
	ctx, cancel := context.WithCancel(context.Background())
	if _, err := a.AnalyzeImage(ctx, img, WithCheckpoint(path), WithExploreWorkers(2),
		WithProgress(func(p Progress) {
			if p.Cycles >= 40 {
				cancel()
			}
		}, 1)); err == nil {
		t.Fatal("cancelled analysis did not fail")
	}
	cancel()
	if _, err := a.AnalyzeImage(context.Background(), other, WithCheckpoint(path)); err == nil ||
		!strings.Contains(err.Error(), "different analysis") {
		t.Fatalf("want foreign-journal refusal, got %v", err)
	}
}

// TestCheckpointDeterminismAcrossWorkers: the interrupt-forking apps,
// checkpointed, seal the sequential uncheckpointed Report at every worker
// count. Their trees spread over the workers, so the power sinks' shared
// floors are raised in a different order at every count, and every won
// fork ends a fold scope. A run cancelled a third of the way in and
// resumed from its journal at two workers must seal the same bytes too:
// the resumed process starts with empty floors, and the replayed tasks'
// candidates never raise them.
func TestCheckpointDeterminismAcrossWorkers(t *testing.T) {
	a := analyzer(t)
	for _, name := range []string{"adcSample", "sensorDuty"} {
		t.Run(name, func(t *testing.T) {
			base, err := a.AnalyzeBench(context.Background(), name, WithExploreWorkers(1))
			if err != nil {
				t.Fatal(err)
			}
			want := reportBytes(t, &base.Report)
			for _, w := range []int{1, 2, 4, 8} {
				res, err := a.AnalyzeBench(context.Background(), name,
					WithCheckpoint(filepath.Join(t.TempDir(), "job.ckpt")), WithExploreWorkers(w))
				if err != nil {
					t.Fatalf("workers=%d: %v", w, err)
				}
				if got := reportBytes(t, &res.Report); !bytes.Equal(got, want) {
					t.Fatalf("workers=%d: checkpointed report differs from the sequential one", w)
				}
			}

			path := filepath.Join(t.TempDir(), "job.ckpt")
			ctx, cancel := context.WithCancel(context.Background())
			_, err = a.AnalyzeBench(ctx, name, WithCheckpoint(path), WithExploreWorkers(2),
				WithProgress(func(p Progress) {
					if p.Cycles >= base.SimCycles/3 {
						cancel()
					}
				}, 1))
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("want context.Canceled, got %v", err)
			}
			if _, err := os.Stat(path); err != nil {
				t.Fatalf("no journal after the cancelled run: %v", err)
			}
			res, err := a.AnalyzeBench(context.Background(), name, WithCheckpoint(path), WithExploreWorkers(2))
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			if got := reportBytes(t, &res.Report); !bytes.Equal(got, want) {
				t.Fatal("resumed report differs from the sequential one")
			}
		})
	}
}

// TestPeakWithoutCOIsDeterminism: the run's peak is the head of the COI
// list, and a sink asked for no COIs still keeps a list of one. So
// WithCOI(0) must find the same peak power and energy, and the same
// Best with its active cells, as WithCOI(8), with no COIs — at one and
// two workers, and resumed from a journal cut a third of the way in.
func TestPeakWithoutCOIsDeterminism(t *testing.T) {
	a := analyzer(t)
	for _, name := range []string{"sensorDuty", "binSearch"} {
		t.Run(name, func(t *testing.T) {
			want, err := a.AnalyzeBench(context.Background(), name, WithCOI(8))
			if err != nil {
				t.Fatal(err)
			}
			if len(want.Best.ActiveCells) == 0 {
				t.Fatal("the COI-8 peak has no active cells")
			}
			check := func(label string, got *Result) {
				t.Helper()
				if got.PeakPowerMW != want.PeakPowerMW || got.PeakEnergyJ != want.PeakEnergyJ {
					t.Fatalf("%s: peak %v mW / %v J, want %v mW / %v J",
						label, got.PeakPowerMW, got.PeakEnergyJ, want.PeakPowerMW, want.PeakEnergyJ)
				}
				if !reflect.DeepEqual(got.Best, want.Best) {
					t.Fatalf("%s: Best differs:\ngot  %+v\nwant %+v", label, got.Best, want.Best)
				}
				if len(got.COIs) != 0 || len(got.Peaks) != 0 {
					t.Fatalf("%s: %d COIs and %d peaks, want none", label, len(got.COIs), len(got.Peaks))
				}
			}
			for _, w := range []int{1, 2} {
				got, err := a.AnalyzeBench(context.Background(), name, WithCOI(0), WithExploreWorkers(w))
				if err != nil {
					t.Fatalf("workers=%d: %v", w, err)
				}
				check(fmt.Sprintf("workers=%d", w), got)
			}

			path := filepath.Join(t.TempDir(), "job.ckpt")
			ctx, cancel := context.WithCancel(context.Background())
			_, err = a.AnalyzeBench(ctx, name, WithCOI(0), WithCheckpoint(path), WithExploreWorkers(2),
				WithProgress(func(p Progress) {
					if p.Cycles >= want.SimCycles/3 {
						cancel()
					}
				}, 1))
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("want context.Canceled, got %v", err)
			}
			if _, err := os.Stat(path); err != nil {
				t.Fatalf("no journal after the cancelled run: %v", err)
			}
			got, err := a.AnalyzeBench(context.Background(), name, WithCOI(0), WithCheckpoint(path), WithExploreWorkers(2))
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			check("resumed", got)
		})
	}
}
