package repro

// The benchmark harness: one testing.B target per table and figure of
// the paper (the per-experiment index of DESIGN.md), plus ablation
// benches for the design decisions DESIGN.md calls out. Each benchmark
// regenerates its experiment end to end; the rendered output of the
// full set is produced by `go run ./cmd/figures`.

import (
	"context"
	"fmt"
	"io"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/cell"
	"repro/internal/figures"
	"repro/internal/gsim"
	"repro/internal/isa"
	"repro/internal/power"
	"repro/internal/symx"
	"repro/internal/ulp430"
	"repro/peakpower"
)

var (
	cfgOnce sync.Once
	cfg     *figures.Config
	cfgErr  error
)

// sharedConfig reuses one experimental setup (and its caches) across all
// benchmark targets, like the paper's single synthesized design.
func sharedConfig(b *testing.B) *figures.Config {
	b.Helper()
	cfgOnce.Do(func() {
		cfg, cfgErr = figures.NewConfig(io.Discard)
		if cfg != nil {
			cfg.ProfileRuns = 3
		}
	})
	if cfgErr != nil {
		b.Fatal(cfgErr)
	}
	return cfg
}

// fastSet is the benchmark subset used by sweep-style experiments to
// keep single-iteration timings reasonable; the cmd/figures tool runs
// all 14.
var fastSet = []string{"mult", "binSearch", "tea8", "tHold", "intAVG", "PI"}

func BenchmarkFig2_2_MeasuredPeakPower(b *testing.B) {
	c := sharedConfig(b)
	for i := 0; i < b.N; i++ {
		if _, err := c.Fig22(fastSet); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2_3_InstPowerProfile(b *testing.B) {
	c := sharedConfig(b)
	for i := 0; i < b.N; i++ {
		if _, err := c.Fig23(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig1_5_PeakCycleActivity(b *testing.B) {
	c := sharedConfig(b)
	for i := 0; i < b.N; i++ {
		th, pi, err := c.Fig15()
		if err != nil {
			b.Fatal(err)
		}
		if pi <= th {
			b.Fatalf("PI (%d gates) must exercise more of the processor at its peak than tHold (%d)", pi, th)
		}
	}
}

func BenchmarkFig3_2_EvenOddAssignment(b *testing.B) {
	c := sharedConfig(b)
	for i := 0; i < b.N; i++ {
		if err := c.Fig32(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3_3_PeakPowerTraces(b *testing.B) {
	c := sharedConfig(b)
	for i := 0; i < b.N; i++ {
		if _, err := c.Fig33(fastSet); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3_4_ToggleContainment(b *testing.B) {
	c := sharedConfig(b)
	for i := 0; i < b.N; i++ {
		res, err := c.Fig34("mult",
			[]uint16{1, 0, 2, 0, 1, 2, 0, 1},
			[]uint16{0xFFFF, 0xAAAA, 0xF731, 0x8001, 0x7FFF, 0x5555, 0xFF0F, 0xFFFE})
		if err != nil {
			b.Fatal(err)
		}
		if res.InputOnly != 0 {
			b.Fatalf("%d gates toggled outside the X-based set", res.InputOnly)
		}
	}
}

func BenchmarkFig3_5_TraceBound(b *testing.B) {
	c := sharedConfig(b)
	for i := 0; i < b.N; i++ {
		x, in, err := c.Fig35()
		if err != nil {
			b.Fatal(err)
		}
		for cyc := range in {
			if cyc < len(x) && in[cyc] > x[cyc]+1e-9 {
				b.Fatalf("cycle %d: input-based %.4f exceeds X-based %.4f", cyc, in[cyc], x[cyc])
			}
		}
	}
}

func BenchmarkFig3_6_COIAnalysis(b *testing.B) {
	c := sharedConfig(b)
	for i := 0; i < b.N; i++ {
		cois, err := c.Fig36()
		if err != nil {
			b.Fatal(err)
		}
		if len(cois) == 0 {
			b.Fatal("no cycles of interest")
		}
	}
}

func BenchmarkFig4_1_PeakPower(b *testing.B) {
	c := sharedConfig(b)
	for i := 0; i < b.N; i++ {
		if _, err := c.Fig41(fastSet); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4_1_NPE(b *testing.B) {
	c := sharedConfig(b)
	for i := 0; i < b.N; i++ {
		rows, err := c.Fig41(fastSet)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.MaxNPE <= 0 {
				b.Fatal("missing NPE data")
			}
		}
	}
}

func BenchmarkFig5_1_PeakPowerComparison(b *testing.B) {
	c := sharedConfig(b)
	for i := 0; i < b.N; i++ {
		rows, agg, err := c.Fig51(fastSet)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			// The paper's ordering: X-based bounds observed; guardbanded
			// and application-oblivious techniques are looser.
			if !(r.XBased >= r.InputBased && r.GBInput > r.XBased*0.99 &&
				r.DesignTool > r.XBased && r.GBStress > r.XBased) {
				b.Fatalf("technique ordering violated for %s: %+v", r.Bench, r)
			}
		}
		if agg.VsGBInputPct <= 0 || agg.VsDesignPct <= 0 {
			b.Fatalf("aggregates: %+v", agg)
		}
	}
}

func BenchmarkFig5_2_NPEComparison(b *testing.B) {
	c := sharedConfig(b)
	for i := 0; i < b.N; i++ {
		rows, _, err := c.Fig52(fastSet)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.XBased > r.GBInput || r.XBased > r.DesignTool {
				b.Fatalf("NPE ordering violated for %s", r.Bench)
			}
		}
	}
}

func BenchmarkTable5_1_HarvesterReduction(b *testing.B) {
	c := sharedConfig(b)
	for i := 0; i < b.N; i++ {
		rows, err := c.Table51(fastSet)
		if err != nil {
			b.Fatal(err)
		}
		for base, row := range rows {
			if row[len(row)-1] <= 0 {
				b.Fatalf("no harvester reduction vs %s", base)
			}
		}
	}
}

func BenchmarkTable5_2_BatteryReduction(b *testing.B) {
	c := sharedConfig(b)
	for i := 0; i < b.N; i++ {
		rows, err := c.Table52(fastSet)
		if err != nil {
			b.Fatal(err)
		}
		for base, row := range rows {
			if row[len(row)-1] <= 0 {
				b.Fatalf("no battery reduction vs %s", base)
			}
		}
	}
}

func BenchmarkFig5_4_OptPeakReduction(b *testing.B) {
	c := sharedConfig(b)
	for i := 0; i < b.N; i++ {
		rows, err := c.Fig54([]string{"mult", "binSearch", "rle"})
		if err != nil {
			b.Fatal(err)
		}
		improved := false
		for _, r := range rows {
			if r.PeakReductionPct > 0 {
				improved = true
			}
		}
		if !improved {
			b.Fatal("optimizations improved nothing")
		}
	}
}

func BenchmarkFig5_5_OptTrace(b *testing.B) {
	c := sharedConfig(b)
	for i := 0; i < b.N; i++ {
		before, after, err := c.Fig55()
		if err != nil {
			b.Fatal(err)
		}
		if len(before) == 0 || len(after) <= len(before) {
			b.Fatal("optimized trace should be longer (inserted NOPs)")
		}
	}
}

func BenchmarkFig5_6_OptOverhead(b *testing.B) {
	c := sharedConfig(b)
	for i := 0; i < b.N; i++ {
		rows, err := c.Fig54([]string{"mult", "rle"})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Applied && r.PerfDegradationPct < 0 {
				b.Fatalf("%s: negative overhead?", r.Bench)
			}
		}
	}
}

// --- ablations (DESIGN.md §4) -----------------------------------------

// BenchmarkAblationStateMerging demonstrates what Algorithm 1's
// seen-state merging is for: tHold's input-dependent wait loop is finite
// to analyze only because a re-encountered (branch, state) pair merges.
// With merging disabled, exploration must exhaust any cycle budget.
func BenchmarkAblationStateMerging(b *testing.B) {
	bb := bench.ByName("tHold")
	img, err := bb.Image()
	if err != nil {
		b.Fatal(err)
	}
	nl, err := ulp430.BuildCPU()
	if err != nil {
		b.Fatal(err)
	}
	m := power.Model{Lib: cell.ULP65(), ClockHz: 100e6}
	run := func(disable bool, budget int) (cycles int, err error) {
		sys, serr := ulp430.NewSystem(nl, m.Lib, img, ulp430.SymbolicInputs, nil)
		if serr != nil {
			b.Fatal(serr)
		}
		sink := power.NewSink(sys, m, img, 0)
		tree, err := symx.Explore(sys, sink, symx.Options{
			MaxCycles: budget, MaxNodes: 120000, DisableMerge: disable,
		})
		if err != nil {
			return 0, err
		}
		return tree.Cycles, nil
	}
	for i := 0; i < b.N; i++ {
		mc, err := run(false, bb.MaxCycles)
		if err != nil {
			b.Fatalf("merged exploration must terminate: %v", err)
		}
		// Any budget, however large, is exhausted without merging; a
		// modest one demonstrates it quickly (50x the merged cost).
		if _, err := run(true, 50*mc); err == nil {
			b.Fatal("unmerged exploration of a wait loop should exhaust its budget")
		}
		b.ReportMetric(float64(mc), "merged-cycles")
	}
}

// BenchmarkAblationAlgorithmTwo compares Algorithm 2's consistent
// even/odd assignment against the naive "every active-X gate takes its
// maximum transition every cycle" bound — identical here by construction
// (the streaming rule IS the per-cycle max), and against the
// no-activity-annotation bound (every X gate toggles), which is what the
// activity analysis buys.
func BenchmarkAblationAlgorithmTwo(b *testing.B) {
	img, err := isa.Assemble("ablation", `
.org 0x0200
v: .input 4
.org 0xf000
.entry main
main:
    mov #0x0080, &0x0120
    mov &v, r4
    add &v+2, r4
    xor &v+4, r4
    and &v+6, r4
    mov r4, &0x0208
    mov #1, &0x0126
spin: jmp spin
`)
	if err != nil {
		b.Fatal(err)
	}
	nl, err := ulp430.BuildCPU()
	if err != nil {
		b.Fatal(err)
	}
	m := power.Model{Lib: cell.ULP65(), ClockHz: 100e6}
	for i := 0; i < b.N; i++ {
		sys, err := ulp430.NewSystem(nl, m.Lib, img, ulp430.SymbolicInputs, nil)
		if err != nil {
			b.Fatal(err)
		}
		sys.Reset()
		w, err := power.Capture(sys, 40)
		if err != nil {
			b.Fatal(err)
		}
		peak, _, _ := power.AlgorithmTwo(w, m)
		best := 0.0
		for _, p := range peak {
			if p > best {
				best = p
			}
		}
		// Naive bound: every X-valued gate (active or not) toggles at max
		// energy.
		naive := naiveBound(w, m)
		if naive <= best {
			b.Fatalf("activity annotation must tighten the bound: naive %.3f vs alg2 %.3f", naive, best)
		}
		b.ReportMetric(naive/best, "naive-looseness-x")
	}
}

func naiveBound(w *power.Window, m power.Model) float64 {
	best := 0.0
	for c := 1; c < len(w.Vals); c++ {
		e := 0.0
		for g, k := range w.Kinds {
			p := m.Lib.Params(k)
			e += p.EnergyClk
			if w.Vals[c][g] == 2 /* X */ || w.Vals[c-1][g] != w.Vals[c][g] {
				_, _, max := m.Lib.MaxTransition(k)
				e += max
			}
		}
		if pw := m.PowerMW(e); pw > best {
			best = pw
		}
	}
	return best
}

// --- gate-engine benchmarks (PERFORMANCE.md) --------------------------

var engineVariants = []struct {
	name   string
	engine gsim.Engine
}{
	{"packed", gsim.EnginePacked},
	{"scalar", gsim.EngineScalar},
}

// BenchmarkEngineStepConcrete is the settle-loop micro-benchmark: raw
// Step throughput of each gate engine over a concrete execution of the
// mult benchmark (restored to the post-reset state whenever it halts).
func BenchmarkEngineStepConcrete(b *testing.B) {
	bb := bench.ByName("mult")
	img, err := bb.Image()
	if err != nil {
		b.Fatal(err)
	}
	nl, err := ulp430.BuildCPU()
	if err != nil {
		b.Fatal(err)
	}
	for _, v := range engineVariants {
		b.Run(v.name, func(b *testing.B) {
			sys, err := ulp430.NewSystemEngine(v.engine, nl, cell.ULP65(), img,
				ulp430.ConcreteInputs, []uint16{3, 5, 7, 2, 1, 9, 4, 8})
			if err != nil {
				b.Fatal(err)
			}
			sys.Reset()
			snap := sys.Snapshot()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if sys.Halted() {
					sys.Restore(snap)
				}
				sys.Step()
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "cycles/s")
		})
	}
}

// BenchmarkEngineExploreSymbolic measures one full symbolic exploration
// (Algorithm 1 + streaming power sink) per iteration — the co-analysis
// inner loop, X values in flight.
func BenchmarkEngineExploreSymbolic(b *testing.B) {
	bb := bench.ByName("binSearch")
	img, err := bb.Image()
	if err != nil {
		b.Fatal(err)
	}
	nl, err := ulp430.BuildCPU()
	if err != nil {
		b.Fatal(err)
	}
	m := power.Model{Lib: cell.ULP65(), ClockHz: 100e6}
	for _, v := range engineVariants {
		b.Run(v.name, func(b *testing.B) {
			cycles := 0
			for i := 0; i < b.N; i++ {
				sys, err := ulp430.NewSystemEngine(v.engine, nl, m.Lib, img, ulp430.SymbolicInputs, nil)
				if err != nil {
					b.Fatal(err)
				}
				sink := power.NewSink(sys, m, img, 8)
				tree, err := symx.Explore(sys, sink, symx.Options{MaxCycles: 2 * bb.MaxCycles})
				if err != nil {
					b.Fatal(err)
				}
				cycles += tree.Cycles
			}
			b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "simcycles/s")
		})
	}
}

// BenchmarkEngineCoAnalysis is the end-to-end macro-benchmark behind
// PERFORMANCE.md's headline number: a fresh, uncached peakpower
// co-analysis of three representative Table 4.1 benchmarks per
// iteration, per engine, pinned to one explore worker so the numbers
// measure engine speed, not parallelism. The packed/scalar ns/op ratio
// is the engine speedup.
func BenchmarkEngineCoAnalysis(b *testing.B) {
	a, err := peakpower.New()
	if err != nil {
		b.Fatal(err)
	}
	apps := []string{"mult", "tHold", "binSearch"}
	for _, v := range engineVariants {
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, name := range apps {
					if _, err := a.AnalyzeBench(context.Background(), name,
						peakpower.WithEngine(v.engine), peakpower.WithExploreWorkers(1)); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkMemo measures the whole-step memoization (PERFORMANCE.md,
// "Engine speed round 2") by running the same fresh co-analysis with the
// memo table on and off. The sealed Reports are byte-identical either
// way (peakpower's memo determinism suite asserts it); this benchmark
// captures only the replay speedup. sensorDuty and adcSample are the
// convergent, loop-heavy explorations the step table targets; tHold and
// binSearch are path-divergent controls where probation must cut the
// table's overhead to noise. Runs are pinned to one explore worker.
func BenchmarkMemo(b *testing.B) {
	a, err := peakpower.New()
	if err != nil {
		b.Fatal(err)
	}
	for _, app := range []string{"tHold", "binSearch", "sensorDuty", "adcSample"} {
		for _, memo := range []bool{false, true} {
			b.Run(fmt.Sprintf("%s/memo=%v", app, memo), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := a.AnalyzeBench(context.Background(), app,
						peakpower.WithMemo(memo), peakpower.WithExploreWorkers(1)); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkExploreWorkers scales the work-stealing parallel exploration
// across worker counts on sensorDuty — the widest interrupt-forking tree
// in the suite (dozens of pending fork points, so work actually
// distributes). The result is bit-identical at every count (asserted by
// peakpower's determinism suite); this benchmark measures only the
// wall-clock effect. On a single-core host the expected curve is flat:
// the workers multiplex one CPU (see PERFORMANCE.md).
func BenchmarkExploreWorkers(b *testing.B) {
	a, err := peakpower.New()
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := a.AnalyzeBench(context.Background(), "sensorDuty",
					peakpower.WithExploreWorkers(w)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
