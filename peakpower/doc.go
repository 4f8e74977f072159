// Package peakpower is the public entry point for hardware–software
// co-analysis: it takes an application binary and a gate-level processor
// design point and returns guaranteed, input-independent,
// application-specific peak power and peak energy requirements — the
// headline contribution of "Determining Application-specific Peak Power
// and Energy Requirements for Ultra-low Power Processors" (ASPLOS 2017).
//
// # Quickstart
//
//	a, err := peakpower.New()            // build the ULP430 once
//	if err != nil { ... }
//	res, err := a.Analyze(ctx, "app", src)
//	if err != nil { ... }
//	fmt.Printf("peak power %.3f mW, peak energy %.3e J\n",
//		res.PeakPowerMW, res.PeakEnergyJ)
//
// # Targets
//
// The co-analysis engine is target-pluggable: a Target packages a design
// point (netlist build, library, clock, budgets, benchmark suite), and a
// registry of them turns design-space exploration into a loop:
//
//	for _, ti := range peakpower.Targets() {
//		a, _ := peakpower.NewFor(ctx, ti.Name)
//		res, _ := a.AnalyzeBench(ctx, "mult")
//		...
//	}
//
// Registered out of the box: "ulp430" (the standard core), "ulp430-sized"
// (the Chapter 5 down-sized variant), and "ulp430-gated" (the power-gated
// variant). New always analyzes DefaultTarget.
//
// # Reports
//
// Every Result embeds a Report: a versioned, fully serializable record of
// the analysis — operating point, requirements, resolved (name-based)
// cycle-of-interest attribution, and run metadata — that round-trips
// losslessly through JSON and carries a content hash. Reports are
// deterministic: the same target, application, and options always produce
// byte-identical JSON (wall-clock timing lives on Result, outside the
// Report). Result adds the live, in-process handles on top: the execution
// tree, raw cell-index attribution, and the analyzed image.
//
// # Caching
//
// WithCache attaches a content-addressed analysis cache (NewCache): a
// repeated Analyze of the same image and resolved options is served
// without re-exploration, and concurrent analyses of identical work
// single-flight behind one exploration. cmd/peakpowerd wraps this package
// as an HTTP service serving cached Reports.
//
// # Options
//
// New/NewFor accept functional options establishing the analyzer's
// defaults, and every Analyze* method accepts the same options as
// per-call overrides:
//
//   - WithLibrary selects the standard-cell library (default: the target's).
//   - WithClockHz sets the operating clock (default: the target's).
//   - WithMaxCycles / WithMaxNodes bound the symbolic exploration.
//   - WithCOI sets how many cycles of interest are attributed.
//   - WithProgress configures progress reporting and its cadence for
//     long analyses (honored by both Analyze* and RunConcrete).
//   - WithWorkers sets the AnalyzeAll worker-pool size.
//   - WithEngine selects the gate-level evaluation engine.
//   - WithCache attaches a content-addressed analysis cache.
//
// # Engines
//
// Analyses default to EnginePacked, the bit-packed levelized gate
// engine (64 nets per word operation — see PERFORMANCE.md).
// EngineScalar is the original one-gate-at-a-time implementation,
// retained as the verification oracle: it evaluates gate by gate over
// the same net-state planes, and differential tests hold the two
// engines to identical explorations, toggle sets, and bounds on the
// full benchmark suite. EngineScalar exists to cross-check results and
// bisect suspected engine bugs, not for throughput. Report.Engine
// records which engine produced a result.
//
// # Error taxonomy
//
// Failures are classified by sentinel errors matchable with errors.Is:
// ErrAssemble (the source did not assemble), ErrUnknownBench (no such
// built-in benchmark), ErrUnknownTarget (no such registered design
// point), ErrCycleBudget and ErrNodeBudget (symbolic exploration exceeded
// its configured budget). Cancellation and deadlines surface as errors
// wrapping context.Canceled or context.DeadlineExceeded from the
// caller's context.
//
// # Concurrency
//
// An Analyzer is safe for concurrent use: the gate-level netlist is
// built once, is immutable afterwards, and every analysis simulates on
// its own private machine state. Run any number of Analyze* calls from
// different goroutines against one shared Analyzer, or use AnalyzeAll,
// which batches applications through a bounded worker pool sharing the
// one-time netlist build. A Cache may back any number of Analyzers.
package peakpower
