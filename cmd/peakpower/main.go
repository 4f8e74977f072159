// Command peakpower is the co-analysis tool: it takes one or more
// applications (built-in benchmarks or an assembly file) and reports the
// guaranteed, input-independent peak power and energy requirements of
// a registered processor design point running them, with cycle-of-interest
// attribution.
//
// Usage:
//
//	peakpower -bench mult
//	peakpower -bench mult -json               (serialized versioned Report)
//	peakpower -bench mult,tea8,binSearch      (batch mode, concurrent)
//	peakpower -target ulp430-sized -bench mult  (sweep design points)
//	peakpower -src app.s [-coi 4] [-trace] [-timeout 30s] [-progress]
//	peakpower -src node.s -irq 8:24           (peripheral bus + symbolic interrupt window)
//	peakpower -dump-netlist ulp430.v
//	peakpower -list-targets
//
// Exit codes distinguish the failure class:
//
//	1  analysis failed (budget exhausted, unsupported construct, timeout)
//	2  usage error (bad flags, unknown benchmark or target)
//	3  the source file did not assemble
//	4  file I/O failed (reading -src, writing -dump-netlist)
//	5  a remote server kept backpressuring (429/503) past the retry budget
//
// With -server URL the analysis runs on a peakpowerd instead of
// in-process: the request is submitted to the async job API and polled to
// completion, with jittered-exponential-backoff retries that honor the
// server's Retry-After, and the served Report is hash-verified before it
// is rendered.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/peakpower"
)

// Exit codes (see the command doc).
const (
	exitAnalysis  = 1
	exitUsage     = 2
	exitAssemble  = 3
	exitIO        = 4
	exitRetryable = 5
)

func main() {
	benchName := flag.String("bench", "", "built-in benchmark name, or a comma-separated list for batch mode (see -list)")
	src := flag.String("src", "", "ULP430 assembly file to analyze")
	list := flag.Bool("list", false, "list the target's built-in benchmarks")
	listTargets := flag.Bool("list-targets", false, "list registered design points")
	target := flag.String("target", peakpower.DefaultTarget, "design point to analyze (see -list-targets)")
	coi := flag.Int("coi", 4, "cycles of interest to report")
	trace := flag.Bool("trace", false, "print the per-cycle peak power trace")
	jsonOut := flag.Bool("json", false, "emit the serialized Report (JSON) instead of text")
	dumpNetlist := flag.String("dump-netlist", "", "write the gate-level netlist as structural Verilog and exit")
	maxCycles := flag.Int("max-cycles", 2_000_000, "symbolic exploration cycle budget")
	timeout := flag.Duration("timeout", 0, "abort analysis after this long (0 = no limit)")
	progress := flag.Bool("progress", false, "report exploration progress on stderr")
	workers := flag.Int("workers", 0, "batch-mode worker count (0 = GOMAXPROCS)")
	exploreWorkers := flag.Int("explore-workers", 0, "parallel exploration workers per analysis; the result is bit-identical at any count (0 = GOMAXPROCS)")
	engine := flag.String("engine", "packed", "gate-level engine: packed (fast) or scalar (reference oracle)")
	irq := flag.String("irq", "", "attach the peripheral bus with a MIN:MAX interrupt arrival window (cycles), e.g. 8:24")
	server := flag.String("server", "", "run the analysis on a peakpowerd at this base URL instead of in-process")
	retries := flag.Int("retries", 5, "-server mode: attempts against a backpressuring server before exit code 5")
	flag.Parse()

	if *listTargets {
		for _, t := range peakpower.Targets() {
			fmt.Printf("%-14s %s\n", t.Name, t.Description)
		}
		return
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	eng, err := peakpower.ParseEngine(*engine)
	if err != nil {
		fatal(exitUsage, err)
	}
	opts := []peakpower.Option{
		peakpower.WithMaxCycles(*maxCycles),
		peakpower.WithCOI(*coi),
		peakpower.WithEngine(eng),
	}
	// An explicit -max-cycles overrides even a benchmark's calibrated
	// budget; the flag's default only seeds the analyzer-wide default.
	var callOpts []peakpower.Option
	maxCyclesSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "max-cycles" {
			maxCyclesSet = true
			callOpts = append(callOpts, peakpower.WithMaxCycles(*maxCycles))
		}
	})
	var irqCfg *peakpower.InterruptConfig
	if *irq != "" {
		cfg, err := parseIRQ(*irq)
		if err != nil {
			fatal(exitUsage, err)
		}
		irqCfg = &cfg
		opts = append(opts, peakpower.WithInterrupts(cfg))
		callOpts = append(callOpts, peakpower.WithInterrupts(cfg))
	}
	if *workers > 0 {
		opts = append(opts, peakpower.WithWorkers(*workers))
	}
	if *exploreWorkers > 0 {
		opts = append(opts, peakpower.WithExploreWorkers(*exploreWorkers))
	}
	if *progress {
		opts = append(opts, peakpower.WithProgress(func(p peakpower.Progress) {
			fmt.Fprintf(os.Stderr, "peakpower: %s: %d cycles, %d nodes, %d paths\n",
				p.App, p.Cycles, p.Nodes, p.Paths)
		}, 0))
	}

	// Listing needs no netlist: resolve the suite straight off the registry.
	if *list {
		benches, err := peakpower.TargetBenchmarks(*target)
		if err != nil {
			fatal(exitUsage, err)
		}
		for _, b := range benches {
			fmt.Printf("%-10s %-16s %s\n", b.Name, b.Suite, b.Desc)
		}
		return
	}

	if *server != "" {
		req := &serverRequest{Target: *target, Options: serverOptions{
			COI:            *coi,
			Engine:         *engine,
			ExploreWorkers: *exploreWorkers,
			Interrupts:     irqCfg,
		}}
		if maxCyclesSet {
			req.Options.MaxCycles = *maxCycles
		}
		if *timeout > 0 {
			req.Options.TimeoutMS = int(*timeout / time.Millisecond)
		}
		switch {
		case *dumpNetlist != "":
			fatal(exitUsage, fmt.Errorf("-dump-netlist needs an in-process analyzer, not -server"))
		case *benchName != "" && strings.Contains(*benchName, ","):
			fatal(exitUsage, fmt.Errorf("-server mode analyzes one application per invocation"))
		case *benchName != "":
			req.Bench = *benchName
		case *src != "":
			text, err := os.ReadFile(*src)
			if err != nil {
				fatal(exitIO, fmt.Errorf("open -src %s: %w", *src, err))
			}
			req.Name, req.Source = *src, string(text)
		default:
			fatal(exitUsage, fmt.Errorf("need -bench or -src with -server"))
		}
		serverMain(ctx, *server, *retries, req, *coi, *trace, *jsonOut)
		return
	}

	an, err := peakpower.NewFor(ctx, *target, opts...)
	if err != nil {
		if errors.Is(err, peakpower.ErrUnknownTarget) {
			fatal(exitUsage, err)
		}
		fatal(exitAnalysis, err)
	}

	if *dumpNetlist != "" {
		f, err := os.Create(*dumpNetlist)
		if err != nil {
			fatal(exitIO, fmt.Errorf("create -dump-netlist %s: %w", *dumpNetlist, err))
		}
		if err := an.WriteVerilog(f); err != nil {
			fatal(exitIO, fmt.Errorf("write -dump-netlist %s: %w", *dumpNetlist, err))
		}
		if err := f.Close(); err != nil {
			fatal(exitIO, fmt.Errorf("close -dump-netlist %s: %w", *dumpNetlist, err))
		}
		st := an.Stats()
		fmt.Printf("wrote %s: %d cells (%d flip-flops), %d nets, %.0f um2\n",
			*dumpNetlist, st.Cells, st.Seq, st.Nets, st.AreaUM2)
		return
	}

	switch {
	case *benchName != "" && strings.Contains(*benchName, ","):
		analyzeList(ctx, an, strings.Split(*benchName, ","), callOpts, *jsonOut)
	case *benchName != "":
		res, err := an.AnalyzeBench(ctx, *benchName, callOpts...)
		if err != nil {
			fatal(classify(err), err)
		}
		report(res, *coi, *trace, *jsonOut)
	case *src != "":
		text, err := os.ReadFile(*src)
		if err != nil {
			fatal(exitIO, fmt.Errorf("open -src %s: %w", *src, err))
		}
		res, err := an.Analyze(ctx, *src, string(text))
		if err != nil {
			fatal(classify(err), err)
		}
		report(res, *coi, *trace, *jsonOut)
	default:
		fatal(exitUsage, fmt.Errorf("need -bench or -src (or -list / -list-targets / -dump-netlist)"))
	}
}

// parseIRQ parses the -irq window spec: "MIN:MAX" (cycles), or a bare
// "MIN" taking the default window width.
func parseIRQ(spec string) (peakpower.InterruptConfig, error) {
	var cfg peakpower.InterruptConfig
	lo, hi, found := strings.Cut(spec, ":")
	min, err := strconv.Atoi(strings.TrimSpace(lo))
	if err != nil || min <= 0 {
		return cfg, fmt.Errorf("-irq %q: window is MIN:MAX in positive cycles", spec)
	}
	cfg.MinLatency = min
	if found {
		max, err := strconv.Atoi(strings.TrimSpace(hi))
		if err != nil || max < min {
			return cfg, fmt.Errorf("-irq %q: MAX must be an integer >= MIN", spec)
		}
		cfg.MaxLatency = max
	}
	return cfg, nil
}

// classify maps an analysis error to the command's exit code.
func classify(err error) int {
	switch {
	case errors.Is(err, peakpower.ErrUnknownBench), errors.Is(err, peakpower.ErrUnknownTarget):
		return exitUsage
	case errors.Is(err, peakpower.ErrAssemble):
		return exitAssemble
	default:
		return exitAnalysis
	}
}

// printJSON writes a Report (or any JSON-marshalable value) to stdout.
func printJSON(v interface{}) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fatal(exitAnalysis, err)
	}
	fmt.Printf("%s\n", data)
}

// analyzeList runs the comma-separated benchmarks concurrently through
// the shared analyzer, prints a summary table (or a JSON report array),
// and reports the combined multi-programmed requirement.
func analyzeList(ctx context.Context, an *peakpower.Analyzer, names []string, callOpts []peakpower.Option, jsonOut bool) {
	var apps []peakpower.App
	for _, n := range names {
		if n = strings.TrimSpace(n); n != "" {
			apps = append(apps, peakpower.App{Bench: n})
		}
	}
	if len(apps) == 0 {
		fatal(exitUsage, fmt.Errorf("-bench: no benchmark names in list"))
	}
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "trace" || f.Name == "coi" {
			fmt.Fprintf(os.Stderr, "peakpower: -%s is ignored in batch mode\n", f.Name)
		}
	})
	start := time.Now()
	results, err := an.AnalyzeAll(ctx, apps, callOpts...)
	if err != nil {
		fatal(classify(err), err)
	}
	comb, err := peakpower.Combine(results...)
	if err != nil {
		fatal(exitAnalysis, err)
	}
	if jsonOut {
		reports := make([]*peakpower.Report, len(results))
		for i, r := range results {
			reports[i] = &r.Report
		}
		printJSON(struct {
			Reports  []*peakpower.Report `json:"reports"`
			Combined *peakpower.Report   `json:"combined"`
		}{reports, &comb.Report})
		return
	}
	fmt.Printf("%-12s %12s %14s %16s %8s %10s\n",
		"application", "peak (mW)", "energy (J)", "NPE (J/cycle)", "paths", "elapsed")
	for _, r := range results {
		fmt.Printf("%-12s %12.3f %14.3e %16.3e %8d %10s\n",
			r.App, r.PeakPowerMW, r.PeakEnergyJ, r.NPEJPerCycle, r.Paths,
			r.Elapsed.Round(time.Millisecond))
	}
	fmt.Printf("\ncombined multi-programmed requirement: %.3f mW, %.3e J (%d apps, wall %s)\n",
		comb.PeakPowerMW, comb.PeakEnergyJ, len(results), time.Since(start).Round(time.Millisecond))
}

func report(res *peakpower.Result, coi int, trace bool, jsonOut bool) {
	if jsonOut {
		printJSON(&res.Report)
		return
	}
	fmt.Printf("application:          %s\n", res.App)
	fmt.Printf("target:               %s\n", res.Target)
	fmt.Printf("operating point:      %s @ %.0f MHz\n", res.Library, res.ClockHz/1e6)
	fmt.Printf("peak power bound:     %.3f mW (guaranteed for all inputs)\n", res.PeakPowerMW)
	fmt.Printf("peak energy bound:    %.3e J over %.0f cycles\n", res.PeakEnergyJ, res.BoundingCycles)
	fmt.Printf("normalized peak energy: %.3e J/cycle\n", res.NPEJPerCycle)
	fmt.Printf("exploration:          %d paths, %d tree nodes, %d simulated cycles (%s)\n",
		res.Paths, res.Nodes, res.SimCycles, res.Elapsed.Round(time.Millisecond))
	if irq := res.Interrupts; irq != nil {
		fmt.Printf("interrupts:           arrival window [%d, %d] cycles, %d arrival forks, ISR peak %.3f mW\n",
			irq.MinLatency, irq.MaxLatency, irq.IRQForks, irq.ISRPeakMW)
	}

	fmt.Printf("\ncycles of interest (peak power attribution):\n")
	att := res.Attribution()
	if len(att) > coi {
		att = att[:coi]
	}
	for _, pk := range att {
		fmt.Printf("  cycle %-6d %.3f mW  %-8s (after %-8s) state=%-6s",
			pk.Cycle, pk.PowerMW, pk.Instr, pk.PrevInstr, pk.State)
		type mp struct {
			name string
			mw   float64
		}
		var mods []mp
		for name, mw := range pk.ByModuleMW {
			mods = append(mods, mp{name, mw})
		}
		sort.Slice(mods, func(i, j int) bool { return mods[i].mw > mods[j].mw })
		for _, m := range mods[:3] {
			fmt.Printf("  %s=%.2f", m.name, m.mw)
		}
		fmt.Println()
	}

	fmt.Printf("\npotentially-toggled gates: %d of %d\n", res.ActiveGates, res.TotalGates)
	by := c2sorted(res.ActiveByModule)
	for _, kv := range by {
		fmt.Printf("  %-16s %d\n", kv.k, kv.v)
	}

	if trace {
		fmt.Printf("\nper-cycle peak power trace (mW):\n")
		for i, p := range res.PeakTrace {
			fmt.Printf("%d %.4f\n", i, p)
		}
	}
}

type kv struct {
	k string
	v int
}

func c2sorted(m map[string]int) []kv {
	out := make([]kv, 0, len(m))
	for k, v := range m {
		out = append(out, kv{k, v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].v > out[j].v })
	return out
}

func fatal(code int, err error) {
	fmt.Fprintln(os.Stderr, "peakpower:", err)
	os.Exit(code)
}
