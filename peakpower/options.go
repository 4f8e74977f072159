package peakpower

import (
	"runtime"

	"repro/internal/cell"
	"repro/internal/gsim"
	"repro/internal/periph"
)

// Library is a characterized standard-cell library (an alias of the
// internal representation, so external programs can hold and pass one
// without importing internal packages).
type Library = cell.Library

// ULP65 returns the synthetic 65 nm low-power library — the paper's
// openMSP430-class operating point (1 V / 100 MHz).
func ULP65() *Library { return cell.ULP65() }

// ULP130 returns the 130 nm variant used by the measurement-rig
// substitute for the MSP430F1610 experiments (8 MHz operating point).
func ULP130() *Library { return cell.ULP130() }

// Engine selects the gate-level evaluation engine backing an analysis
// (an alias of the internal representation).
type Engine = gsim.Engine

const (
	// EnginePacked is the bit-packed, levelized engine — the default,
	// and the fast path.
	EnginePacked = gsim.EnginePacked
	// EngineScalar is the straightforward one-gate-at-a-time reference
	// engine. It computes identical results to EnginePacked (this is
	// continuously verified by differential tests) and exists as the
	// verification oracle; select it to cross-check a result or to
	// bisect a suspected engine bug, not for throughput.
	EngineScalar = gsim.EngineScalar
)

// ParseEngine resolves "packed" or "scalar" — the names produced by
// Engine.String — for flag and config plumbing.
func ParseEngine(s string) (Engine, error) { return gsim.ParseEngine(s) }

// Progress is a snapshot of a running analysis, delivered to the
// WithProgress callback.
type Progress struct {
	// App is the name of the application being analyzed.
	App string
	// Cycles is the number of simulated cycles so far.
	Cycles int
	// Nodes is the number of execution-tree segments so far.
	Nodes int
	// Paths is the number of fully explored paths so far.
	Paths int
	// MemoHits / MemoMisses count the packed engine's memoization
	// lookups so far, summed across explore workers (zero with
	// WithMemo(false) or the scalar engine).
	MemoHits   int64
	MemoMisses int64
}

// config is the resolved option set. An Analyzer stores the defaults
// established at New; each Analyze* call copies them and applies its
// per-call options on top.
type config struct {
	lib            *cell.Library
	clockHz        float64
	maxCycles      int
	maxNodes       int
	coiK           int
	progress       func(Progress)
	progressEvery  int
	workers        int
	exploreWorkers int
	engine         Engine
	cache          *Cache
	irq            *periph.Config
	checkpointPath string
	memo           bool
}

func defaultConfig() config {
	return config{
		lib:            cell.ULP65(),
		clockHz:        100e6,
		maxCycles:      2_000_000,
		maxNodes:       10_000,
		coiK:           8,
		workers:        runtime.GOMAXPROCS(0),
		exploreWorkers: runtime.GOMAXPROCS(0),
		memo:           true,
	}
}

// Option configures an Analyzer (at New) or a single analysis (passed
// to an Analyze* method, overriding the Analyzer's defaults for that
// call only).
type Option func(*config)

// WithLibrary selects the standard-cell library / operating point.
// Default: ULP65().
func WithLibrary(lib *Library) Option {
	return func(c *config) {
		if lib != nil {
			c.lib = lib
		}
	}
}

// WithClockHz sets the clock frequency used to convert per-cycle energy
// to power. Default: 100 MHz.
func WithClockHz(hz float64) Option {
	return func(c *config) {
		if hz > 0 {
			c.clockHz = hz
		}
	}
}

// WithMaxCycles bounds total simulated cycles per analysis; exceeding
// it fails the analysis with ErrCycleBudget. Default: 2,000,000.
func WithMaxCycles(n int) Option {
	return func(c *config) {
		if n > 0 {
			c.maxCycles = n
		}
	}
}

// WithMaxNodes bounds execution-tree segments per analysis; exceeding
// it fails the analysis with ErrNodeBudget. Default: 10,000.
func WithMaxNodes(n int) Option {
	return func(c *config) {
		if n > 0 {
			c.maxNodes = n
		}
	}
}

// WithCOI sets how many cycles of interest (peak-power attribution
// entries) each analysis retains. Default: 8.
func WithCOI(k int) Option {
	return func(c *config) {
		if k >= 0 {
			c.coiK = k
		}
	}
}

// WithProgress registers a callback invoked from the analyzing
// goroutine roughly every interval cycles and once when the analysis
// finishes. The interval also paces context-cancellation polling; one
// <= 0 leaves the default cadence (8192 cycles for symbolic
// exploration, 4096 for RunConcrete). The callback must be fast, and
// must be safe for concurrent invocation if the option is used with
// AnalyzeAll or a shared Analyzer.
func WithProgress(fn func(Progress), interval int) Option {
	return func(c *config) {
		c.progress = fn
		if interval > 0 {
			c.progressEvery = interval
		}
	}
}

// WithCache attaches a content-addressed analysis cache: an Analyze* call
// whose image and resolved options hash to a cached entry returns the
// cached Result without re-exploration. One Cache may serve many Analyzers
// concurrently. A nil cache disables caching (the default).
func WithCache(cache *Cache) Option {
	return func(c *config) { c.cache = cache }
}

// InterruptConfig parameterizes the interrupt-capable peripheral
// subsystem (timer, ADC, radio) attached by WithInterrupts — chiefly the
// ADC arrival window [MinLatency, MaxLatency] the peak-power bound must
// cover. The zero value selects the documented defaults.
type InterruptConfig = periph.Config

// WithInterrupts attaches the peripheral bus to the analyzed system and
// enables interrupt-aware analysis: symbolic exploration forks at every
// interruptible instruction boundary inside the ADC arrival window, so
// the resulting bound covers every arrival interleaving; the sealed
// Report gains an Interrupts section and per-COI interrupt-context
// attribution. Concrete runs (RunConcrete) deliver the interrupt at
// cfg.ConcreteLatency instead of forking.
func WithInterrupts(cfg InterruptConfig) Option {
	return func(c *config) {
		norm := cfg.Normalized()
		c.irq = &norm
	}
}

// WithWorkers sets the AnalyzeAll worker-pool size. Default: GOMAXPROCS.
//
// WithWorkers parallelizes ACROSS applications; WithExploreWorkers
// parallelizes WITHIN one application's symbolic exploration. Their
// product bounds the goroutines simulating at once — when batching many
// apps with AnalyzeAll, consider WithExploreWorkers(1) to avoid
// oversubscription.
func WithWorkers(n int) Option {
	return func(c *config) {
		if n > 0 {
			c.workers = n
		}
	}
}

// WithExploreWorkers sets how many worker goroutines explore a single
// application's symbolic execution tree in parallel (work-stealing over
// pending fork points). Default: GOMAXPROCS. n == 1 explores on the
// calling goroutine.
//
// The worker count NEVER changes the analysis result: sealed Reports are
// bit-identical (equal Report.Hash) at any n — the parallel engine
// partitions work by claiming fork points and then reduces peaks,
// activity, and tree statistics in canonical fork order, not completion
// order. This invariance is continuously asserted by the determinism
// test suite, and is why the option is deliberately excluded from the
// analysis cache key.
func WithExploreWorkers(n int) Option {
	return func(c *config) {
		if n > 0 {
			c.exploreWorkers = n
		}
	}
}

// WithCheckpoint journals the symbolic exploration to path so a killed
// analysis resumes from its last synced record instead of restarting:
// re-running the same analysis with the same checkpoint path replays the
// journaled work and seals a Report BYTE-IDENTICAL to an uninterrupted
// run (same Report.Hash — the crash-recovery determinism contract,
// asserted by the resume test suite at multiple worker counts). The
// journal is keyed to the analysis (image content + resolved options); a
// journal left by a different analysis fails rather than grafting foreign
// state. On success the journal is removed.
//
// The journal's directory must exist. Journal write failures never fail
// the analysis — it completes un-checkpointed (losing only resumability).
// Like the worker count, the option cannot change the analysis result and
// is excluded from the cache key. An empty path disables checkpointing
// (the default).
func WithCheckpoint(path string) Option {
	return func(c *config) { c.checkpointPath = path }
}

// WithMemo toggles the packed engine's whole-step memoization
// (default: enabled). The memo replays a cycle's settled planes,
// activity flags and energy bound when the planes entering the cycle
// recur — the common case when exploration paths converge, as in
// interrupt-driven duty loops — instead of re-executing the gather
// programs. It is a pure execution-speed mechanism: memo hits verify
// their source planes exactly (no reliance on hash uniqueness) and
// replay the very planes, flags and bound the live pass computed, so
// sealed Reports are byte-identical with the memo on or off. Like the
// worker count, the option cannot change the analysis result and is
// excluded from the cache key; the scalar engine ignores it.
// Result.MemoHits / MemoMisses and the Progress counters report its
// effectiveness.
func WithMemo(enabled bool) Option {
	return func(c *config) { c.memo = enabled }
}

// WithEngine selects the gate-level evaluation engine. Default:
// EnginePacked. EngineScalar is the slow reference oracle; both engines
// produce identical bounds. Values outside the two engines are ignored
// (like other options' invalid inputs), keeping the package's
// error-not-panic contract.
func WithEngine(e Engine) Option {
	return func(c *config) {
		if e == EnginePacked || e == EngineScalar {
			c.engine = e
		}
	}
}
