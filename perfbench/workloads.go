package main

import (
	"fmt"
	"math/rand"

	"repro/internal/bench"
	"repro/peakpower"
)

// analysis is one fresh, uncached AnalyzeBench call a workload issues.
type analysis struct {
	App string
	// Window, when non-nil, replaces the benchmark's own interrupt
	// configuration (peakpower.WithInterrupts); nil keeps the
	// benchmark's default, as AnalyzeBench attaches it.
	Window *peakpower.InterruptConfig
}

// key names the analysis in the reference table and in every output:
// the app, plus "@min-max" for a catalogue window.
func (an analysis) key() string {
	if an.Window == nil {
		return an.App
	}
	return fmt.Sprintf("%s@%d-%d", an.App, an.Window.MinLatency, an.Window.MaxLatency)
}

// maxCycles is the cycle budget AnalyzeBench applies: the benchmark's
// calibrated budget, doubled for margin.
func (an analysis) maxCycles() int { return 2 * bench.ByName(an.App).MaxCycles }

// options are the per-call options the analysis runs with, on top of
// the analyzer's defaults.
func (an analysis) options() []peakpower.Option {
	if an.Window == nil {
		return nil
	}
	return []peakpower.Option{peakpower.WithInterrupts(*an.Window)}
}

// irq is the interrupt configuration the analysis runs under, normalized
// as WithInterrupts normalizes it; nil for an interrupt-free benchmark.
func (an analysis) irq() *peakpower.InterruptConfig {
	cfg := an.Window
	if cfg == nil {
		cfg = bench.ByName(an.App).IRQ
	}
	if cfg == nil {
		return nil
	}
	norm := cfg.Normalized()
	return &norm
}

// workload is one set of analyses a pass issues.
type workload struct {
	name string
	// durable runs every analysis with WithCheckpoint on a fresh path.
	durable bool
	draw    func(r *rand.Rand) []analysis
}

// suiteApps are the paper's 14 Table 4.1 benchmarks.
var suiteApps = []string{
	"autoCorr", "binSearch", "FFT", "intFilt", "mult", "PI", "tea8",
	"tHold", "div", "inSort", "rle", "intAVG", "ConvEn", "Viterbi",
}

// durableApps mix the divergent Table 4.1 trees (binSearch, PI, rle,
// Viterbi), a straight-line kernel (tea8), the memo-friendly wait loop
// (tHold) and the widest default interrupt tree (sensorDuty).
var durableApps = []string{"binSearch", "PI", "rle", "Viterbi", "tHold", "sensorDuty", "tea8"}

// isrFixedApps run in every isr pass under their own configuration.
var isrFixedApps = []string{"timerCount", "tHold"}

// The isr catalogue. Exploration cost grows with the window's width
// (every interruptible boundary inside it forks) and barely with its
// offset, so each list holds one width at several offsets: any draw
// explores within about 2% of the same cycle count, which keeps pass_s
// comparable across seeds. Every entry stays inside the app's budgets
// (sensorDuty: at most 49,017 of 200,000 cycles and 1,799 of 10,000
// nodes; adcSample: at most 24,938 of 100,000 cycles and 1,603 nodes).
var (
	// sensorDutyWindows are 56 cycles wide: about 48k cycles, 1,799
	// nodes and 99.5% step-memo hits, roughly 0.43 s each.
	sensorDutyWindows = windows(8, 56, 4, 10)
	// adcSampleWindows are 1,600 cycles wide: about 24.9k cycles and
	// 1,603 nodes, roughly 0.22 s each.
	adcSampleWindows = windows(8, 1600, 8, 8)
)

// isrDraws is how many catalogue windows of each app one isr pass runs.
const isrDraws = 2

// windows lists n windows of one width, the first starting at min and
// each next one step cycles later.
func windows(min, width, step, n int) []peakpower.InterruptConfig {
	out := make([]peakpower.InterruptConfig, n)
	for i := range out {
		lo := min + i*step
		out[i] = peakpower.InterruptConfig{MinLatency: lo, MaxLatency: lo + width}
	}
	return out
}

// workloads are the benchmark's traffic mixes. Each pass issues every
// analysis of its workload once, one at a time, in a fixed order: the
// order moves a pass's peak resident set by up to 10% (suite in two
// shuffled orders peaked at 12.5 and 11.3 MB), so drawing it from the
// seed would put seed noise into max_rss_mb. The seed draws only the isr
// windows.
var workloads = []workload{
	{
		// suite is the paper's own traffic and the divergent regime: on 13
		// of the 14 apps the step memo finds no repeats and probation
		// switches it off, so the time goes to settle/gather, fork capture
		// (div has 511 nodes, Viterbi 127) and the energy DAG. It loads
		// gsim's gather path and symx's fork handling. A step-memo change
		// is predicted not to move it.
		name: "suite",
		draw: func(*rand.Rand) []analysis { return plain(suiteApps) },
	},
	{
		// isr is the convergent regime, the mirror image of suite: in the
		// drawn sensorDuty/adcSample windows over 99% of steps replay from
		// the step memo, so memo lookup/replay, copy-on-write fork
		// snapshots, merge lookup and the power sink dominate, not gather.
		// A gather or engine change that leaves the memo path alone is
		// predicted not to move it. The seed draws the windows; the
		// program receives only the windows.
		name: "isr",
		draw: func(r *rand.Rand) []analysis {
			ans := plain(isrFixedApps)
			ans = append(ans, drawWindows(r, "sensorDuty", sensorDutyWindows)...)
			return append(ans, drawWindows(r, "adcSample", adcSampleWindows)...)
		},
	},
	{
		// durable is the path every peakpowerd async job takes: with
		// WithCheckpoint even one explore worker runs the ExploreParallel
		// task engine, publishes every fork as a portable state, writes
		// and syncs the journal every 8 records, and reduces through the
		// checkpoint sink and MergeParallelReplay. It is the other side of
		// a unified exploration loop: a unification that slows the task
		// path shows here, one that slows the sequential path on suite.
		// The sequential-only engine paths are predicted not to move it.
		name:    "durable",
		durable: true,
		draw:    func(*rand.Rand) []analysis { return plain(durableApps) },
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func plain(apps []string) []analysis {
	out := make([]analysis, len(apps))
	for i, app := range apps {
		out[i] = analysis{App: app}
	}
	return out
}

// drawWindows picks isrDraws distinct catalogue windows for app.
func drawWindows(r *rand.Rand, app string, catalogue []peakpower.InterruptConfig) []analysis {
	out := make([]analysis, isrDraws)
	for i, j := range r.Perm(len(catalogue))[:isrDraws] {
		w := catalogue[j]
		out[i] = analysis{App: app, Window: &w}
	}
	return out
}

// everyAnalysis lists each analysis any workload can issue, plus the
// default-window adcSample analysis that only the golden cross-check
// uses: the set the reference table covers.
func everyAnalysis() []analysis {
	all := plain(suiteApps)
	all = append(all, plain(isrFixedApps)...)
	all = append(all, plain(durableApps)...)
	all = append(all, analysis{App: "adcSample"})
	for _, w := range sensorDutyWindows {
		all = append(all, analysis{App: "sensorDuty", Window: &w})
	}
	for _, w := range adcSampleWindows {
		all = append(all, analysis{App: "adcSample", Window: &w})
	}
	seen := make(map[string]bool)
	out := all[:0]
	for _, an := range all {
		if !seen[an.key()] {
			seen[an.key()] = true
			out = append(out, an)
		}
	}
	return out
}
