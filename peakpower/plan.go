package peakpower

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/energy"
	"repro/internal/faultfs"
	"repro/internal/power"
	"repro/internal/symx"
	"repro/internal/ulp430"
)

// ExplorePlan is one fully resolved analysis: an image plus the options
// resolved against the analyzer defaults. It is the only place an image
// and options become an analysis. AnalyzeImage and AnalyzeBench run a
// plan in-process, peakpowerd resolves every request to one, and a fleet
// of cooperating processes (see internal/fleet) executes one through the
// pieces exposed here — the journal tag, the engine options, the
// checkpoint codec, and private System/sink construction. So the plan's
// Key, the analysis cache key and the checkpoint journal tag are equal by
// construction, and a journal filled by a fleet is sealed by the ordinary
// Analyze call with WithCheckpoint on the same path.
type ExplorePlan struct {
	a   *Analyzer
	img *Image
	cfg config
}

// PlanImage resolves an image analysis into a plan: opts are applied on
// top of the analyzer defaults.
func (a *Analyzer) PlanImage(img *Image, opts ...Option) *ExplorePlan {
	return &ExplorePlan{a: a, img: img, cfg: a.resolve(opts)}
}

// PlanBench is PlanImage for a named built-in benchmark. Unless
// overridden by opts, the benchmark's calibrated cycle budget (doubled
// for margin) and its interrupt configuration apply. Unknown names wrap
// ErrUnknownBench.
func (a *Analyzer) PlanBench(name string, opts ...Option) (*ExplorePlan, error) {
	b, img, err := targetBenchImage(a.target, name)
	if err != nil {
		return nil, err
	}
	var auto []Option
	if b.MaxCycles > 0 {
		auto = append(auto, WithMaxCycles(2*b.MaxCycles))
	}
	if b.IRQ != nil {
		auto = append(auto, WithInterrupts(*b.IRQ))
	}
	return a.PlanImage(img, append(auto, opts...)...), nil
}

// App returns the analyzed application's name (for logs).
func (p *ExplorePlan) App() string { return p.img.Name }

// Key is the analysis fingerprint: the checkpoint journal tag and the
// analysis cache key (identical by construction).
func (p *ExplorePlan) Key() string { return p.a.cacheKey(p.img, p.cfg) }

// ExploreOptions returns the symx engine options of this analysis. The
// budgets must be enforced fleet-wide against exactly these values for
// the job to fail identically to a local run.
func (p *ExplorePlan) ExploreOptions(ctx context.Context) symx.Options {
	return symx.Options{
		MaxCycles:     p.cfg.maxCycles,
		MaxNodes:      p.cfg.maxNodes,
		Ctx:           ctx,
		ProgressEvery: p.cfg.progressEvery,
	}
}

// Codec returns the checkpoint codec that serializes this analysis's
// sink seeds and segment payloads on the wire and in the journal.
func (p *ExplorePlan) Codec() symx.CheckpointCodec { return power.Codec{} }

// NewWorker builds one private System and sink for executing this plan's
// remote tasks. Each call returns an independent pair; a fleet worker
// creates one per job and reuses it across that job's tasks. A fleet
// task's fork host is never canonical, so the runner ends the sink's fold
// scope at every fork it wins. The sink's shared head and TopK floors are
// process-local — lower bounds on the in-process floors — so the scopes
// materialize a superset of what a single-process run does, which the
// canonical replay then reduces identically (the fold is lossless at any
// floors no higher than the in-process ones).
func (p *ExplorePlan) NewWorker() (*ulp430.System, symx.WorkerSink, error) {
	return p.newWorker(power.NewShared())
}

// newWorker builds one private symbolic System and its power sink on the
// exploration's shared floor — the construction shared by every explore
// worker and NewWorker. Where the sink's fold scopes end is the runner's
// decision: at one worker without a journal the whole run is one scope
// and the sink materializes exactly the peaks of a whole-run fold.
func (p *ExplorePlan) newWorker(shared *power.Shared) (*ulp430.System, *power.Sink, error) {
	sys, err := p.a.newSystem(p.img, p.cfg, ulp430.SymbolicInputs, nil)
	if err != nil {
		return nil, nil, err
	}
	sink := power.NewSink(sys, p.cfg.model(), p.img, p.cfg.coiK)
	sink.EnableTasks(shared)
	return sys, sink, nil
}

// Analyze runs the plan in-process (see Analyzer.AnalyzeImage): through
// the plan's WithCache cache when one is set, exploring otherwise.
func (p *ExplorePlan) Analyze(ctx context.Context) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("peakpower: analysis of %s: %w", p.img.Name, err)
	}
	if p.cfg.cache == nil {
		return p.analyze(ctx)
	}
	res, err := p.cfg.cache.do(ctx, p.Key(), func() (*Result, error) { return p.analyze(ctx) })
	if err != nil && err == ctx.Err() {
		// The single-flight wait canceled before any analysis ran;
		// label it like every other analysis error.
		err = fmt.Errorf("peakpower: analysis of %s: %w", p.img.Name, err)
	}
	return res, err
}

// analyze is the cache-independent analysis body. Every analysis runs
// on the work-stealing engine, at one worker unless WithExploreWorkers
// asks for more; the Report is bit-identical at every worker count, so
// the choice is invisible downstream of the explore call.
func (p *ExplorePlan) analyze(ctx context.Context) (*Result, error) {
	start := time.Now()
	img, cfg := p.img, p.cfg
	sxOpts := p.ExploreOptions(ctx)
	// Every system this analysis creates (one per explore worker) is
	// tracked so the memo counters can be summed for progress reporting
	// and the final Result. MemoStats reads atomics, so summing
	// concurrently with running workers is safe.
	var (
		sysMu   sync.Mutex
		systems []*ulp430.System
	)
	memoTotals := func() (hits, misses int64) {
		sysMu.Lock()
		defer sysMu.Unlock()
		for _, s := range systems {
			h, m := s.Sim.MemoStats()
			hits += h
			misses += m
		}
		return hits, misses
	}
	if cfg.progress != nil {
		fn, app := cfg.progress, img.Name
		sxOpts.Progress = func(p symx.Progress) {
			h, m := memoTotals()
			fn(Progress{App: app, Cycles: p.Cycles, Nodes: p.Nodes, Paths: p.Paths,
				MemoHits: h, MemoMisses: m})
		}
	}

	workers := max(cfg.exploreWorkers, 1)
	var ck *symx.Checkpointer
	if cfg.checkpointPath != "" {
		ck = symx.NewCheckpointer(symx.CheckpointConfig{
			Path:  cfg.checkpointPath,
			Tag:   p.Key(),
			Codec: p.Codec(),
		})
	}
	shared := power.NewShared()
	sinks := make([]*power.Sink, workers)
	pres, err := symx.ExploreParallel(symx.ParallelOptions{
		Options:    sxOpts,
		Workers:    workers,
		Checkpoint: ck,
		NewWorker: func(worker int) (*ulp430.System, symx.WorkerSink, error) {
			wsys, wsink, err := p.newWorker(shared)
			if err != nil {
				return nil, nil, err
			}
			sysMu.Lock()
			systems = append(systems, wsys)
			sysMu.Unlock()
			sinks[worker] = wsink
			return wsys, wsink, nil
		},
	})
	var (
		best    power.Peak
		topK    []power.Peak
		union   []bool
		isrPeak float64
	)
	if err == nil {
		best, topK, isrPeak, union, err = power.MergeParallelReplay(sinks, cfg.coiK, pres.NodeID, pres.Replayed)
	}
	if err != nil {
		return nil, fmt.Errorf("peakpower: symbolic analysis of %s: %w", img.Name, err)
	}
	if ck != nil {
		// The analysis is complete; the journal has served its purpose
		// and must not shadow a later analysis at the same path.
		_ = faultfs.OS{}.Remove(cfg.checkpointPath)
	}
	tree := pres.Tree

	model := cfg.model()
	eres, err := energy.PeakEnergy(tree, img, model.ClockHz)
	if err != nil {
		return nil, fmt.Errorf("peakpower: peak energy of %s: %w", img.Name, err)
	}
	modules := p.a.nl.Modules()
	res := &Result{
		Report: Report{
			Schema:         SchemaVersion,
			Target:         p.a.target.Name(),
			App:            img.Name,
			Library:        model.Lib.Name,
			FeatureNM:      model.Lib.FeatureNM,
			ClockHz:        model.ClockHz,
			Engine:         cfg.engine.String(),
			PeakPowerMW:    best.PowerMW,
			PeakEnergyJ:    eres.EnergyJ,
			NPEJPerCycle:   eres.NPEJPerCycle,
			BoundingCycles: eres.Cycles,
			PeakTrace:      maxEnergyPathTrace(tree),
			COIs:           resolveCOIs(topK, modules, img),
			TotalGates:     len(union),
			ActiveByModule: p.a.ActiveByModule(union),
			Paths:          tree.Paths,
			Nodes:          len(tree.Nodes),
			SimCycles:      tree.Cycles,
		},
		Peaks:       topK,
		Best:        best,
		UnionActive: union,
		Modules:     modules,
		Elapsed:     time.Since(start),
		Tree:        tree,
		img:         img,
	}
	res.MemoHits, res.MemoMisses = memoTotals()
	if cfg.irq != nil {
		res.Interrupts = &IRQReport{
			MinLatency: cfg.irq.MinLatency,
			MaxLatency: cfg.irq.MaxLatency,
			IRQForks:   tree.IRQForks(),
			ISRPeakMW:  isrPeak,
		}
	}
	for _, act := range union {
		if act {
			res.ActiveGates++
		}
	}
	res.Seal()
	return res, nil
}
