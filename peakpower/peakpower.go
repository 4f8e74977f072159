package peakpower

import (
	"context"
	"fmt"
	"io"

	"repro/internal/isa"
	"repro/internal/netlist"
	"repro/internal/power"
	"repro/internal/symx"
	"repro/internal/ulp430"
)

// Image is an assembled application binary (an alias of the internal
// representation; obtain one from Assemble or BenchImage).
type Image = isa.Image

// Assemble translates ULP430 assembly source into an application image.
// name labels the program in diagnostics and results. Failures wrap
// ErrAssemble.
func Assemble(name, source string) (*Image, error) {
	img, err := isa.Assemble(name, source)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrAssemble, err)
	}
	return img, nil
}

// Analyzer binds one target's gate-level design and the default analysis
// configuration. It is safe for concurrent use: the netlist is built once
// and never mutated afterwards; every analysis simulates on its own
// private state.
type Analyzer struct {
	nl     *netlist.Netlist
	target Target
	def    config
}

// New builds an Analyzer for the standard ULP430 processor (DefaultTarget).
// Options set the analyzer-wide defaults; every Analyze* method accepts the
// same options as per-call overrides. Use NewFor to analyze a different
// registered design point.
func New(opts ...Option) (*Analyzer, error) {
	return NewFor(context.Background(), DefaultTarget, opts...)
}

// Target returns the design point this analyzer was built for.
func (a *Analyzer) Target() Target { return a.target }

// resolve copies the analyzer defaults and applies per-call options.
func (a *Analyzer) resolve(opts []Option) config {
	cfg := a.def
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// model returns the power model for a resolved configuration.
func (cfg config) model() power.Model {
	return power.Model{Lib: cfg.lib, ClockHz: cfg.clockHz}
}

// Analyze assembles source and runs the full co-analysis. name labels
// the application in diagnostics and the Result. Assembly failures wrap
// ErrAssemble.
func (a *Analyzer) Analyze(ctx context.Context, name, source string, opts ...Option) (*Result, error) {
	img, err := Assemble(name, source)
	if err != nil {
		return nil, err
	}
	return a.AnalyzeImage(ctx, img, opts...)
}

// AnalyzeImage runs the full co-analysis on an assembled application:
// symbolic gate-activity analysis (Algorithm 1) drives the streaming
// peak-power computation (Algorithm 2) over every execution path, and
// the annotated execution tree yields the peak power requirement, the
// peak energy requirement, and cycle-of-interest attribution.
//
// ctx cancels or bounds the exploration; on cancellation the returned
// error wraps ctx.Err(). Budget exhaustion wraps ErrCycleBudget or
// ErrNodeBudget.
//
// With WithCache, a previously computed analysis of the same image and
// resolved options is returned without re-exploration — cache hits share
// the original *Result and skip progress reporting — and concurrent
// analyses of the same work single-flight behind one exploration.
func (a *Analyzer) AnalyzeImage(ctx context.Context, img *Image, opts ...Option) (*Result, error) {
	return a.PlanImage(img, opts...).Analyze(ctx)
}

// newSystem builds one private System for a resolved analysis — the
// construction shared by every symbolic explore worker (see
// ExplorePlan.newWorker) and RunConcrete.
func (a *Analyzer) newSystem(img *Image, cfg config, mode ulp430.InputMode, inputs []uint16) (*ulp430.System, error) {
	sys, err := a.target.NewSystem(cfg.engine, a.nl, cfg.lib, img, mode, inputs)
	if err != nil {
		return nil, err
	}
	if cfg.irq != nil {
		sys.EnableInterrupts(*cfg.irq)
	}
	if cfg.memo {
		sys.Sim.EnableMemo(0) // no-op on the scalar engine
	}
	return sys, nil
}

// AnalyzeBench runs the co-analysis on one of the target's built-in
// benchmarks (see Analyzer.Benchmarks and PlanBench, which resolves it).
// Unknown names wrap ErrUnknownBench. Unless overridden by WithMaxCycles,
// the benchmark's calibrated cycle budget (doubled for margin) is used.
func (a *Analyzer) AnalyzeBench(ctx context.Context, name string, opts ...Option) (*Result, error) {
	p, err := a.PlanBench(name, opts...)
	if err != nil {
		return nil, err
	}
	return p.Analyze(ctx)
}

// maxEnergyPathTrace concatenates segment traces greedily along the
// higher-energy child, stopping at merges (one loop pass shown).
func maxEnergyPathTrace(tree *symx.Tree) []float64 {
	var out []float64
	seen := make(map[int]bool)
	n := tree.Root
	for n != nil && !seen[n.ID] {
		seen[n.ID] = true
		if seg, ok := n.Data.([]float64); ok {
			out = append(out, seg...)
		}
		switch n.Kind {
		case symx.KindBranch:
			a, b := n.Taken, n.NotTaken
			if segSum(a) >= segSum(b) {
				n = a
			} else {
				n = b
			}
		case symx.KindMerge:
			n = n.MergeTo
		default:
			n = nil
		}
	}
	return out
}

func segSum(n *symx.Node) float64 {
	if n == nil {
		return -1
	}
	seg, ok := n.Data.([]float64)
	if !ok {
		return -1
	}
	s := 0.0
	for _, v := range seg {
		s += v
	}
	return s
}

// concreteCancelEvery is the default interval (in cycles) at which
// RunConcrete polls its context and reports progress; WithProgress's
// interval overrides it.
const concreteCancelEvery = 4096

// RunConcrete executes the binary with concrete inputs and measures its
// power — the "input-based" view used for profiling and validation.
// portIn, when non-nil, supplies P1IN port reads. A bus error (e.g. a
// store to ROM) or a run that does not halt within maxCycles fails.
//
// RunConcrete honors WithProgress: the callback is invoked from the
// running goroutine every progress interval (default 4096 cycles) with
// the cycle count, and once when the run finishes; the same interval
// paces context-cancellation polling.
func (a *Analyzer) RunConcrete(ctx context.Context, img *Image, inputs []uint16, portIn func() uint16, maxCycles int, opts ...Option) (*ConcreteRun, error) {
	cfg := a.resolve(opts)
	if ctx == nil {
		ctx = context.Background()
	}
	pollEvery := cfg.progressEvery
	if pollEvery <= 0 {
		pollEvery = concreteCancelEvery
	}
	sys, err := a.newSystem(img, cfg, ulp430.ConcreteInputs, inputs)
	if err != nil {
		return nil, fmt.Errorf("peakpower: preparing %s: %w", img.Name, err)
	}
	sys.PortIn = portIn
	run, err := power.RunConcrete(sys, cfg.model(), maxCycles, pollEvery, func(c int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if cfg.progress != nil && c > 0 {
			cfg.progress(Progress{App: img.Name, Cycles: c})
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("peakpower: concrete run of %s: %w", img.Name, err)
	}
	if cfg.progress != nil {
		cfg.progress(Progress{App: img.Name, Cycles: len(run.Trace)})
	}
	return run, nil
}

// ActiveByModule counts cells from the given activity set per top-level
// module — the data behind the activity-profile figures (1.5, 3.4).
func (a *Analyzer) ActiveByModule(active []bool) map[string]int {
	out := make(map[string]int)
	for ci, act := range active {
		if act {
			out[a.nl.Modules()[a.nl.ModuleIndex(netlist.CellID(ci))]]++
		}
	}
	return out
}

// ActiveCellsByModule groups an explicit cell list per module.
func (a *Analyzer) ActiveCellsByModule(cells []netlist.CellID) map[string]int {
	out := make(map[string]int)
	for _, ci := range cells {
		out[a.nl.Modules()[a.nl.ModuleIndex(ci)]]++
	}
	return out
}

// Netlist exposes the gate-level design under analysis. It must be
// treated as read-only; it is shared by every concurrent analysis. This
// is an escape hatch for in-repo tooling (figure generation, baselines,
// the measurement rig).
func (a *Analyzer) Netlist() *netlist.Netlist { return a.nl }

// Model returns the analyzer's default power model / operating point.
func (a *Analyzer) Model() power.Model { return a.def.model() }

// WriteVerilog writes the design as structural Verilog.
func (a *Analyzer) WriteVerilog(w io.Writer) error { return a.nl.WriteVerilog(w) }

// Stats summarizes the design (cells, flip-flops, nets, area) at the
// analyzer's default library.
func (a *Analyzer) Stats() netlist.Stats { return a.nl.Stats(a.def.lib) }
