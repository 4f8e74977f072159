package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/energy"
	"repro/internal/gsim"
	"repro/internal/netlist"
	"repro/internal/power"
	"repro/internal/symx"
	"repro/internal/ulp430"
	"repro/peakpower"
)

// span is one timed call into a layer, recorded from the benchmark's own
// code. Spans of one analysis share Analysis; Parent is the enclosing
// span's ID (0 at the top).
type span struct {
	ID       int              `json:"id"`
	Parent   int              `json:"parent,omitempty"`
	Name     string           `json:"name"`
	Analysis int              `json:"analysis,omitempty"`
	Key      string           `json:"key,omitempty"`
	Pass     int              `json:"pass,omitempty"`
	StartNs  int64            `json:"start_ns"`
	EndNs    int64            `json:"end_ns"`
	Counters map[string]int64 `json:"counters,omitempty"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	epoch time.Time
	spans []span
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span under span index parent (-1: none) and returns its
// index.
func (t *tracer) begin(name string, parent int) int {
	s := span{ID: len(t.spans) + 1, Name: name, StartNs: t.now()}
	if parent >= 0 {
		p := t.spans[parent]
		s.Parent, s.Analysis, s.Key, s.Pass = p.ID, p.Analysis, p.Key, p.Pass
	}
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// end closes span i and returns its duration in nanoseconds.
func (t *tracer) end(i int) int64 {
	t.spans[i].EndNs = t.now()
	return t.spans[i].EndNs - t.spans[i].StartNs
}

// stepClock splits an exploration's time between the gate simulator and
// the power sink from outside both. A step interval ends at a
// Simulator.AddHook callback and starts at the previous callback or at
// the end of the previous sink call, whichever is later; sink calls are
// timed by timedSink. Everything else inside the explore span is the
// exploration loop's own time. At one explore worker only one goroutine
// at a time touches it, and ExploreParallel's return orders its writes
// before the reads.
type stepClock struct {
	t      *tracer
	mark   int64
	stepNs int64
	steps  int64
	sinkNs int64
	// setupNs is system and sink construction that happens inside the
	// explore span (ExploreParallel builds its workers itself); the span
	// "ulp430.new_system" covers both, on either path.
	setupNs int64
}

func (c *stepClock) hook(uint64, *gsim.Simulator) {
	now := c.t.now()
	c.stepNs += now - c.mark
	c.mark = now
	c.steps++
}

func (c *stepClock) sinkDone(start int64) {
	c.mark = c.t.now()
	c.sinkNs += c.mark - start
}

// timedSink forwards every Sink, WorkerSink and TaskMarshaler method to
// the power sink and times it.
type timedSink struct {
	s *power.Sink
	c *stepClock
}

func (t timedSink) OnCycle(sys *ulp430.System) {
	start := t.c.t.now()
	t.s.OnCycle(sys)
	t.c.sinkDone(start)
}

func (t timedSink) Pos() int {
	start := t.c.t.now()
	p := t.s.Pos()
	t.c.sinkDone(start)
	return p
}

func (t timedSink) Rewind(pos int) {
	start := t.c.t.now()
	t.s.Rewind(pos)
	t.c.sinkDone(start)
}

func (t timedSink) Segment(from int) interface{} {
	start := t.c.t.now()
	d := t.s.Segment(from)
	t.c.sinkDone(start)
	return d
}

func (t timedSink) BeginTask(task, basePos int, seed interface{}) {
	start := t.c.t.now()
	t.s.BeginTask(task, basePos, seed)
	t.c.sinkDone(start)
}

func (t timedSink) EndTask() {
	start := t.c.t.now()
	t.s.EndTask()
	t.c.sinkDone(start)
}

func (t timedSink) NewSegment() {
	start := t.c.t.now()
	t.s.NewSegment()
	t.c.sinkDone(start)
}

func (t timedSink) SpawnSeed(pos int) interface{} {
	start := t.c.t.now()
	seed := t.s.SpawnSeed(pos)
	t.c.sinkDone(start)
	return seed
}

func (t timedSink) MarshalTask() ([]byte, error) {
	start := t.c.t.now()
	b, err := t.s.MarshalTask()
	t.c.sinkDone(start)
	return b, err
}

// layers is one traced pass's time per layer, summed over its analyses,
// and its counts.
type layers struct {
	passNs, stepNs, sinkNs, exploreNs, loopSelfNs int64
	mergeNs, energyNs, sealNs                     int64
	exploreAlloc                                  uint64
	counts
}

// add accumulates another analysis into the pass.
func (l *layers) add(o layers) {
	l.stepNs += o.stepNs
	l.sinkNs += o.sinkNs
	l.exploreNs += o.exploreNs
	l.loopSelfNs += o.loopSelfNs
	l.mergeNs += o.mergeNs
	l.energyNs += o.energyNs
	l.sealNs += o.sealNs
	l.exploreAlloc += o.exploreAlloc
	c, d := &l.counts, o.counts
	c.Cycles += d.Cycles
	c.Nodes += d.Nodes
	c.Paths += d.Paths
	c.Branches += d.Branches
	c.Merges += d.Merges
	c.IRQForks += d.IRQForks
	c.UsefulCycles += d.UsefulCycles
	c.Steps += d.Steps
	c.MemoHits += d.MemoHits
	c.MemoMisses += d.MemoMisses
	c.JournalBytes += d.JournalBytes
	c.JournalRecords += d.JournalRecords
}

// design is what the traced run builds once, outside any analysis.
type design struct {
	target   peakpower.Target
	nl       *netlist.Netlist
	model    power.Model
	maxNodes int
	images   map[string]*peakpower.Image
}

// traced measures the per-layer metrics. Untraced and traced passes
// alternate, so trace.overhead_ratio compares passes run under the same
// host conditions; the end-to-end metrics come only from untraced runs.
func (h *harness) traced(seconds float64) (map[string]metric, []span, error) {
	tr := &tracer{epoch: time.Now()}
	t, ok := peakpower.TargetByName(peakpower.DefaultTarget)
	if !ok {
		return nil, nil, fmt.Errorf("target %s is not registered", peakpower.DefaultTarget)
	}
	d := &design{target: t, model: power.Model{Lib: t.Library(), ClockHz: t.ClockHz()},
		images: make(map[string]*peakpower.Image)}
	_, d.maxNodes = t.Budgets()

	var builds []float64
	for i := 0; i < setupsBefore; i++ {
		runtime.GC()
		sp := tr.begin("netlist.build", -1)
		nl, err := t.Build()
		builds = append(builds, float64(tr.end(sp))/1e9)
		if err != nil {
			return nil, nil, err
		}
		d.nl = nl
	}
	// Images are assembled once per process; the first BenchImage call
	// for each app pays for it.
	var assembleNs int64
	for _, an := range h.ans {
		if d.images[an.App] != nil {
			continue
		}
		sp := tr.begin("isa.assemble", -1)
		tr.spans[sp].Key = an.App
		img, err := peakpower.BenchImage(an.App)
		assembleNs += tr.end(sp)
		if err != nil {
			return nil, nil, err
		}
		d.images[an.App] = img
	}

	a, err := peakpower.New(peakpower.WithExploreWorkers(exploreWorkers), peakpower.WithCOI(benchCOI))
	if err != nil {
		return nil, nil, err
	}
	// The warm-up pass is untraced; its checked Reports are what every
	// traced analysis must reproduce.
	reports, err := h.pass(a, 0)
	if err != nil {
		return nil, nil, err
	}
	var untracedSecs []float64
	var passes []layers
	start := time.Now()
	for n := 1; n == 1 || time.Since(start).Seconds() < seconds; n++ {
		runtime.GC()
		t0 := time.Now()
		if _, err := h.pass(a, 2*n-1); err != nil {
			return nil, nil, err
		}
		untracedSecs = append(untracedSecs, time.Since(t0).Seconds())

		runtime.GC()
		var lp layers
		p0 := tr.now()
		for i, an := range h.ans {
			root := tr.begin("analysis", -1)
			tr.spans[root].Analysis = len(passes)*len(h.ans) + i + 1
			tr.spans[root].Key, tr.spans[root].Pass = an.key(), 2*n
			journal := ""
			if h.w.durable {
				journal = filepath.Join(h.journals, fmt.Sprintf("traced%d-%d.ckpt", n, i))
			}
			one, err := h.analyzeTraced(tr, root, d, an, reports[an.key()], journal)
			tr.end(root)
			h.chk.attempted++
			if err != nil {
				h.chk.fail("traced %s: %v", an.key(), err)
				continue
			}
			if h.chk.repeat("traced", an.key(), one.counts) {
				lp.add(one)
			}
		}
		lp.passNs = tr.now() - p0
		passes = append(passes, lp)
	}
	describe("netlist.build_s", "s", builds)
	describe("untraced pass wall", "s", untracedSecs)
	return layerMetrics(median(builds), float64(assembleNs)/1e9, passes, median(untracedSecs)), tr.spans, nil
}

// analyzeTraced assembles one analysis from the layers' public calls in
// the order peakpower.analyzeImage makes them, times each layer, and
// checks the result against the untraced analysis: tree counts, peak
// power, peak energy, interrupt forks, the sealed hash and the memo
// counters must all agree.
func (h *harness) analyzeTraced(tr *tracer, root int, d *design, an analysis, ref *peakpower.Report, journal string) (layers, error) {
	var lp layers
	if ref == nil {
		return lp, fmt.Errorf("no checked untraced Report to compare with")
	}
	img := d.images[an.App]
	irq := an.irq()
	clk := &stepClock{t: tr}
	var systems []*ulp430.System
	newSystem := func() (*ulp430.System, error) {
		sys, err := d.target.NewSystem(peakpower.EnginePacked, d.nl, d.model.Lib, img, ulp430.SymbolicInputs, nil)
		if err != nil {
			return nil, err
		}
		if irq != nil {
			sys.EnableInterrupts(*irq)
		}
		sys.Sim.EnableMemo(0)
		sys.Sim.AddHook(clk.hook)
		systems = append(systems, sys)
		return sys, nil
	}
	opts := symx.Options{MaxCycles: an.maxCycles(), MaxNodes: d.maxNodes, Ctx: context.Background()}

	var (
		tree      *symx.Tree
		best      power.Peak
		m0, m1    runtime.MemStats
		exploreSp int
		err       error
	)
	if journal == "" {
		sp := tr.begin("ulp430.new_system", root)
		sys, serr := newSystem()
		if serr != nil {
			return lp, serr
		}
		sink := power.NewSink(sys, d.model, img, benchCOI)
		tr.end(sp)
		runtime.ReadMemStats(&m0)
		exploreSp = tr.begin("symx.explore", root)
		clk.mark = tr.spans[exploreSp].StartNs
		tree, err = symx.Explore(sys, timedSink{sink, clk}, opts)
		lp.exploreNs = tr.end(exploreSp)
		runtime.ReadMemStats(&m1)
		if err != nil {
			return lp, err
		}
		// The sequential sink folds as it observes; its reduction is
		// reading the fold out.
		sp = tr.begin("power.merge", root)
		best = sink.Best
		lp.mergeNs = tr.end(sp)
	} else {
		ck := symx.NewCheckpointer(symx.CheckpointConfig{Path: journal, Tag: "perfbench " + an.key(), Codec: power.Codec{}})
		shared := power.NewShared()
		sinks := make([]*power.Sink, exploreWorkers)
		runtime.ReadMemStats(&m0)
		exploreSp = tr.begin("symx.explore", root)
		clk.mark = tr.spans[exploreSp].StartNs
		pres, perr := symx.ExploreParallel(symx.ParallelOptions{
			Options:    opts,
			Workers:    exploreWorkers,
			Checkpoint: ck,
			NewWorker: func(worker int) (*ulp430.System, symx.WorkerSink, error) {
				sp := tr.begin("ulp430.new_system", exploreSp)
				wsys, err := newSystem()
				if err != nil {
					return nil, nil, err
				}
				wsink := power.NewSink(wsys, d.model, img, benchCOI)
				wsink.EnableTasks(shared)
				wsink.EnableCheckpoint()
				sinks[worker] = wsink
				clk.setupNs += tr.end(sp)
				clk.mark = tr.spans[sp].EndNs
				return wsys, timedSink{wsink, clk}, nil
			},
		})
		lp.exploreNs = tr.end(exploreSp)
		runtime.ReadMemStats(&m1)
		if perr != nil {
			return lp, perr
		}
		tree = pres.Tree
		sp := tr.begin("power.merge", root)
		best, _, _, _, err = power.MergeParallelReplay(sinks, benchCOI, pres.NodeID, pres.Replayed)
		lp.mergeNs = tr.end(sp)
		if err != nil {
			return lp, err
		}
		if err := ck.Err(); err != nil {
			return lp, fmt.Errorf("checkpoint journal: %w", err)
		}
		data, err := os.ReadFile(journal)
		if err != nil {
			return lp, err
		}
		lp.JournalBytes = int64(len(data))
		lp.JournalRecords = int64(bytes.Count(data, []byte{'\n'}))
		if err := os.Remove(journal); err != nil {
			return lp, err
		}
	}
	tr.spans[exploreSp].Counters = map[string]int64{"step_ns": clk.stepNs, "steps": clk.steps, "sink_ns": clk.sinkNs}
	lp.stepNs, lp.sinkNs = clk.stepNs, clk.sinkNs
	lp.loopSelfNs = lp.exploreNs - clk.stepNs - clk.sinkNs - clk.setupNs
	lp.exploreAlloc = m1.TotalAlloc - m0.TotalAlloc

	sp := tr.begin("energy.peak_energy", root)
	eres, err := energy.PeakEnergy(tree, img, d.model.ClockHz)
	lp.energyNs = tr.end(sp)
	if err != nil {
		return lp, err
	}
	// The traced run builds no Report of its own; resealing a copy of the
	// untraced one is the same work.
	rep := *ref
	sp = tr.begin("peakpower.seal", root)
	rep.Seal()
	lp.sealNs = tr.end(sp)

	c := &lp.counts
	c.Cycles, c.Nodes, c.Paths = tree.Cycles, len(tree.Nodes), tree.Paths
	c.Branches, c.Merges = tree.CountKind(symx.KindBranch), tree.CountKind(symx.KindMerge)
	c.IRQForks = tree.IRQForks()
	for _, n := range tree.Nodes {
		c.UsefulCycles += n.Len
	}
	c.Steps = clk.steps
	for _, sys := range systems {
		hits, misses := sys.Sim.MemoStats()
		c.MemoHits += hits
		c.MemoMisses += misses
	}

	memo := h.chk.first["untraced "+an.key()]
	irqForks := 0
	if ref.Interrupts != nil {
		irqForks = ref.Interrupts.IRQForks
	}
	switch {
	case c.Cycles != ref.SimCycles || c.Nodes != ref.Nodes || c.Paths != ref.Paths:
		return lp, fmt.Errorf("tree %d cycles/%d nodes/%d paths, untraced Report %d/%d/%d",
			c.Cycles, c.Nodes, c.Paths, ref.SimCycles, ref.Nodes, ref.Paths)
	case best.PowerMW != ref.PeakPowerMW:
		return lp, fmt.Errorf("peak power %v mW, untraced Report %v mW", best.PowerMW, ref.PeakPowerMW)
	case eres.EnergyJ != ref.PeakEnergyJ:
		return lp, fmt.Errorf("peak energy %v J, untraced Report %v J", eres.EnergyJ, ref.PeakEnergyJ)
	case c.IRQForks != irqForks:
		return lp, fmt.Errorf("%d interrupt forks, untraced Report %d", c.IRQForks, irqForks)
	case rep.Hash != ref.Hash:
		return lp, fmt.Errorf("resealed hash %s, untraced Report %s", rep.Hash, ref.Hash)
	case c.MemoHits != memo.MemoHits || c.MemoMisses != memo.MemoMisses:
		return lp, fmt.Errorf("memo %d hits/%d misses, untraced Result %d/%d",
			c.MemoHits, c.MemoMisses, memo.MemoHits, memo.MemoMisses)
	}
	return lp, nil
}

// layerMetrics reduces the traced passes to the per-layer metrics: times
// are medians over passes of each pass's sum over its analyses, counts
// come from the first traced pass (the checker holds every later pass to
// them).
func layerMetrics(buildS, assembleS float64, passes []layers, untracedPassS float64) map[string]metric {
	med := func(f func(l layers) float64) float64 {
		xs := make([]float64, len(passes))
		for i, l := range passes {
			xs[i] = f(l)
		}
		return median(xs)
	}
	sec := func(ns int64) float64 { return float64(ns) / 1e9 }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	c := passes[0].counts
	m := map[string]metric{
		"netlist.build_s":         {buildS, "s"},
		"isa.assemble_s":          {assembleS, "s"},
		"gsim.step_s":             {med(func(l layers) float64 { return sec(l.stepNs) }), "s"},
		"gsim.steps":              {float64(c.Steps), "count"},
		"gsim.ns_per_step":        {med(func(l layers) float64 { return ratio(float64(l.stepNs), float64(l.Steps)) }), "ns"},
		"gsim.memo_hits":          {float64(c.MemoHits), "count"},
		"gsim.memo_misses":        {float64(c.MemoMisses), "count"},
		"gsim.memo_hit_ratio":     {ratio(float64(c.MemoHits), float64(c.MemoHits+c.MemoMisses)), "ratio"},
		"symx.explore_s":          {med(func(l layers) float64 { return sec(l.exploreNs) }), "s"},
		"symx.loop_self_s":        {med(func(l layers) float64 { return sec(l.loopSelfNs) }), "s"},
		"symx.explore_alloc_mb":   {med(func(l layers) float64 { return float64(l.exploreAlloc) / (1 << 20) }), "MB"},
		"symx.cycles":             {float64(c.Cycles), "count"},
		"symx.nodes":              {float64(c.Nodes), "count"},
		"symx.paths":              {float64(c.Paths), "count"},
		"symx.branches":           {float64(c.Branches), "count"},
		"symx.merges":             {float64(c.Merges), "count"},
		"symx.irq_forks":          {float64(c.IRQForks), "count"},
		"symx.useful_cycle_ratio": {ratio(float64(c.UsefulCycles), float64(c.Cycles)), "ratio"},
		"symx.journal_bytes":      {float64(c.JournalBytes), "bytes"},
		"symx.journal_records":    {float64(c.JournalRecords), "count"},
		"power.sink_s":            {med(func(l layers) float64 { return sec(l.sinkNs) }), "s"},
		"power.merge_s":           {med(func(l layers) float64 { return sec(l.mergeNs) }), "s"},
		"energy.peak_energy_s":    {med(func(l layers) float64 { return sec(l.energyNs) }), "s"},
		"peakpower.seal_s":        {med(func(l layers) float64 { return sec(l.sealNs) }), "s"},
		"trace.overhead_ratio":    {ratio(med(func(l layers) float64 { return sec(l.passNs) }), untracedPassS), "ratio"},
	}
	for _, name := range sortedKeys(m) {
		fmt.Printf("%s %.6g %s\n", name, m[name].Value, m[name].Unit)
	}
	fmt.Printf("traced passes: %d\n", len(passes))
	return m
}

// writeSpans writes the run's spans, after the host record, as one JSON
// document.
func writeSpans(path, host string, spans []span) error {
	data, err := json.Marshal(struct {
		Host  string `json:"host"`
		Spans []span `json:"spans"`
	}{host, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
