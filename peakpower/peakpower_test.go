package peakpower

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/power"
)

var (
	testOnce     sync.Once
	testShared   *Analyzer
	testSharedMu sync.Mutex
	testErr      error
)

// analyzer returns one shared Analyzer — both a test fixture and the
// concurrency claim under test: every test in this package runs against
// the same instance.
func analyzer(t *testing.T) *Analyzer {
	t.Helper()
	testSharedMu.Lock()
	defer testSharedMu.Unlock()
	testOnce.Do(func() { testShared, testErr = New() })
	if testErr != nil {
		t.Fatal(testErr)
	}
	return testShared
}

func TestAnalyzeEndToEnd(t *testing.T) {
	a := analyzer(t)
	req, err := a.AnalyzeBench(context.Background(), "binSearch")
	if err != nil {
		t.Fatal(err)
	}
	if req.PeakPowerMW <= 0 || req.PeakEnergyJ <= 0 || req.NPEJPerCycle <= 0 {
		t.Fatalf("requirements: %+v", req)
	}
	if req.App != "binSearch" || req.Library != "ULP65" || req.ClockHz != 100e6 {
		t.Fatalf("metadata: app=%q lib=%q clock=%g", req.App, req.Library, req.ClockHz)
	}
	if req.Paths < 2 {
		t.Fatalf("binSearch must fork: %d paths", req.Paths)
	}
	if len(req.PeakTrace) == 0 {
		t.Fatal("missing peak trace")
	}
	// Past the measurement warmup, the trace's maximum cannot exceed the
	// global peak (the greedy path need not contain the peak cycle, but
	// never exceeds it; the first cycles hold the reset transient, which
	// peak reporting deliberately skips).
	for c, p := range req.PeakTrace {
		if c >= power.DefaultWarmup && p > req.PeakPowerMW+1e-9 {
			t.Fatalf("cycle %d: trace %.3f exceeds reported peak %.3f", c, p, req.PeakPowerMW)
		}
	}
	if len(req.COIs) == 0 || req.COIs[0].PowerMW != req.PeakPowerMW {
		t.Fatal("COIs inconsistent with peak")
	}
	if len(req.Modules) == 0 || len(req.UnionActive) != a.Netlist().NumCells() {
		t.Fatal("attribution metadata missing")
	}
	// NPE consistency.
	if got := req.PeakEnergyJ / req.BoundingCycles; got != req.NPEJPerCycle {
		t.Fatalf("NPE %.3e != E/cycles %.3e", req.NPEJPerCycle, got)
	}
	// Resolved attribution agrees with the raw COIs.
	att := req.Attribution()
	if len(att) != len(req.COIs) {
		t.Fatalf("attribution length %d != %d", len(att), len(req.COIs))
	}
	if att[0].PowerMW != req.PeakPowerMW || att[0].Instr == "" || att[0].Instr == "?" {
		t.Fatalf("attribution[0]: %+v", att[0])
	}
}

func TestRunConcreteBoundedByAnalyze(t *testing.T) {
	a := analyzer(t)
	req, err := a.AnalyzeBench(context.Background(), "tea8")
	if err != nil {
		t.Fatal(err)
	}
	run, err := a.RunConcrete(context.Background(), req.Image(), []uint16{0xDEAD, 0xBEEF}, nil, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if run.PeakMW > req.PeakPowerMW {
		t.Fatalf("concrete peak %.3f exceeds bound %.3f", run.PeakMW, req.PeakPowerMW)
	}
	if run.EnergyJ > req.PeakEnergyJ {
		t.Fatalf("concrete energy exceeds bound")
	}
	if run.NPEJPerCycle <= 0 || len(run.Trace) == 0 {
		t.Fatalf("run: %+v", run)
	}
}

// TestRunConcreteProgressAndCancel: RunConcrete honors the progress
// option (WithProgress and its interval) and polls its context at the
// same cadence — the callback can cancel a run mid-flight.
func TestRunConcreteProgressAndCancel(t *testing.T) {
	a := analyzer(t)
	img, err := BenchImage("tea8")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var snaps []Progress
	run, err := a.RunConcrete(context.Background(), img, []uint16{1, 2}, nil, 1_000_000,
		WithProgress(func(p Progress) {
			mu.Lock()
			snaps = append(snaps, p)
			mu.Unlock()
		}, 256))
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) < 2 {
		t.Fatalf("expected periodic progress from a %d-cycle run, got %d reports", len(run.Trace), len(snaps))
	}
	for i, p := range snaps {
		if p.App != "tea8" {
			t.Fatalf("progress %d: app %q", i, p.App)
		}
		if i > 0 && p.Cycles <= snaps[i-1].Cycles {
			t.Fatalf("progress cycles not increasing: %d then %d", snaps[i-1].Cycles, p.Cycles)
		}
	}
	// The final report carries the completed cycle count.
	if last := snaps[len(snaps)-1]; last.Cycles != len(run.Trace) {
		t.Fatalf("final progress %d != run length %d", last.Cycles, len(run.Trace))
	}

	// Cancel from the callback: the run must abort with the context error.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err = a.RunConcrete(ctx, img, []uint16{1, 2}, nil, 1_000_000,
		WithProgress(func(Progress) { cancel() }, 64))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestActiveByModule(t *testing.T) {
	a := analyzer(t)
	req, err := a.AnalyzeBench(context.Background(), "mult")
	if err != nil {
		t.Fatal(err)
	}
	by := a.ActiveByModule(req.UnionActive)
	if by["multiplier"] == 0 || by["exec_unit"] == 0 {
		t.Fatalf("module grouping: %v", by)
	}
	byCells := a.ActiveCellsByModule(req.Best.ActiveCells)
	total := 0
	for _, n := range byCells {
		total += n
	}
	if total != len(req.Best.ActiveCells) {
		t.Fatal("cell grouping lost cells")
	}
}

func TestAnalyzeErrorPropagation(t *testing.T) {
	a := analyzer(t)
	// A program with an input-dependent computed branch target must be
	// rejected with a diagnosis, not silence.
	_, err := a.Analyze(context.Background(), "computed-branch", `
.org 0x0200
v: .input 1
.org 0xf000
.entry main
main:
    mov &v, r4
    br r4
    mov #1, &0x0126
spin: jmp spin
`, WithMaxCycles(10000))
	if err == nil {
		t.Fatal("expected analysis error")
	}
}

func TestSentinelErrors(t *testing.T) {
	a := analyzer(t)
	ctx := context.Background()

	if _, err := a.AnalyzeBench(ctx, "nosuchbench"); !errors.Is(err, ErrUnknownBench) {
		t.Fatalf("want ErrUnknownBench, got %v", err)
	}
	if _, err := BenchImage("nosuchbench"); !errors.Is(err, ErrUnknownBench) {
		t.Fatalf("want ErrUnknownBench, got %v", err)
	}
	if _, err := a.Analyze(ctx, "broken", "not an instruction"); !errors.Is(err, ErrAssemble) {
		t.Fatalf("want ErrAssemble, got %v", err)
	}
	if _, err := a.AnalyzeBench(ctx, "tea8", WithMaxCycles(50)); !errors.Is(err, ErrCycleBudget) {
		t.Fatalf("want ErrCycleBudget, got %v", err)
	}
	if _, err := a.AnalyzeBench(ctx, "binSearch", WithMaxNodes(2)); !errors.Is(err, ErrNodeBudget) {
		t.Fatalf("want ErrNodeBudget, got %v", err)
	}
}

// TestPerCallOptionsDoNotStick verifies per-call overrides never mutate
// the analyzer's defaults.
func TestPerCallOptionsDoNotStick(t *testing.T) {
	a := analyzer(t)
	ctx := context.Background()
	if _, err := a.AnalyzeBench(ctx, "mult", WithMaxCycles(50)); !errors.Is(err, ErrCycleBudget) {
		t.Fatalf("want ErrCycleBudget, got %v", err)
	}
	if _, err := a.AnalyzeBench(ctx, "mult"); err != nil {
		t.Fatalf("default budget should still succeed: %v", err)
	}
}

func TestContextPreCanceled(t *testing.T) {
	a := analyzer(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := a.AnalyzeBench(ctx, "mult"); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestContextCancelMidExploration cancels an in-flight analysis from its
// own progress callback — deterministically mid-exploration — and
// requires the analysis to abort with the context's error.
func TestContextCancelMidExploration(t *testing.T) {
	a := analyzer(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	var cancelAt int
	res, err := a.AnalyzeBench(ctx, "tea8", WithProgress(func(p Progress) {
		once.Do(func() {
			cancelAt = p.Cycles
			cancel()
		})
	}, 64))
	if res != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("want canceled error, got res=%v err=%v", res, err)
	}
	// The cancellation must have landed mid-exploration: the full run
	// simulates many more cycles than the point where we canceled.
	full, err := a.AnalyzeBench(context.Background(), "tea8")
	if err != nil {
		t.Fatal(err)
	}
	if full.SimCycles <= cancelAt {
		t.Fatalf("cancellation landed after exploration finished (canceled at %d, full run %d)", cancelAt, full.SimCycles)
	}
}

func TestDeadlineExceeded(t *testing.T) {
	a := analyzer(t)
	ctx, cancel := context.WithTimeout(context.Background(), 1)
	defer cancel()
	if _, err := a.AnalyzeBench(ctx, "tea8"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
}

func TestProgressReporting(t *testing.T) {
	a := analyzer(t)
	var mu sync.Mutex
	var snaps []Progress
	res, err := a.AnalyzeBench(context.Background(), "tea8", WithProgress(func(p Progress) {
		mu.Lock()
		snaps = append(snaps, p)
		mu.Unlock()
	}, 128))
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) < 2 {
		t.Fatalf("expected multiple progress reports, got %d", len(snaps))
	}
	for i, p := range snaps {
		if p.App != "tea8" {
			t.Fatalf("progress %d: app %q", i, p.App)
		}
		if i > 0 && p.Cycles < snaps[i-1].Cycles {
			t.Fatalf("progress cycles not monotonic: %d then %d", snaps[i-1].Cycles, p.Cycles)
		}
	}
	// The final (deferred) report carries the completed totals.
	last := snaps[len(snaps)-1]
	if last.Cycles != res.SimCycles || last.Paths != res.Paths {
		t.Fatalf("final progress %+v != result (%d cycles, %d paths)", last, res.SimCycles, res.Paths)
	}
}

func TestCombine(t *testing.T) {
	a := analyzer(t)
	var results []*Result
	for _, name := range []string{"tea8", "mult"} {
		r, err := a.AnalyzeBench(context.Background(), name)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, r)
	}
	comb, err := Combine(results...)
	if err != nil {
		t.Fatal(err)
	}
	// The combined requirement dominates each application's.
	for i, r := range results {
		if comb.PeakPowerMW < r.PeakPowerMW || comb.PeakEnergyJ < r.PeakEnergyJ {
			t.Fatalf("combined bound below application %d", i)
		}
		for ci, act := range r.UnionActive {
			if act && !comb.UnionActive[ci] {
				t.Fatal("union lost an active cell")
			}
		}
	}
	// mult's multiplier activity must dominate the union peak.
	if comb.PeakPowerMW != results[1].PeakPowerMW {
		t.Fatalf("union peak %.3f, want mult's %.3f", comb.PeakPowerMW, results[1].PeakPowerMW)
	}
	if _, err := Combine(); err == nil {
		t.Fatal("empty combine must error")
	}
}
