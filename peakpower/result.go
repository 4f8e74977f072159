package peakpower

import (
	"fmt"
	"time"

	"repro/internal/isa"
	"repro/internal/power"
	"repro/internal/symx"
)

// Result is the co-analysis output for one application: the serializable
// Report (the guaranteed requirements, resolved attribution, and run
// metadata — everything that persists and compares across runs) plus the
// live handles a same-process caller can keep digging into: the annotated
// execution tree, the raw cell-index attribution, the analyzed image, and
// the wall-clock time. Report fields are promoted, so result.PeakPowerMW,
// result.COIs, result.Paths, etc. read directly.
//
// Results are read-only once returned; analyses served from a Cache share
// one Result across callers.
type Result struct {
	Report

	// Peaks are the raw cycles of interest with cell-index attribution
	// (power.Peak), sorted descending by power; Peaks[0] is the global
	// peak. Report.COIs is the resolved rendering of the same list.
	Peaks []power.Peak
	// Best is the global peak's full attribution, including the active
	// cell set (Figures 1.5/3.4).
	Best power.Peak
	// UnionActive marks cells that can possibly toggle (per cell index).
	UnionActive []bool
	// Modules names the per-module breakdown columns (the index space of
	// power.Peak.ByModuleMW).
	Modules []string
	// Elapsed is the wall-clock analysis time. It lives outside the
	// Report so that reports stay deterministic and content-addressable.
	Elapsed time.Duration
	// MemoHits / MemoMisses count the packed engine's whole-step memo
	// lookups during this analysis, summed across explore workers. Like
	// Elapsed they live outside the Report: the memo is a pure
	// execution-speed mechanism (Reports are byte-identical with it on
	// or off), while the counters vary with engine, worker count, and
	// checkpoint replay.
	MemoHits   int64
	MemoMisses int64
	// Tree is the annotated symbolic execution tree.
	Tree *symx.Tree

	img *isa.Image
}

// Image returns the analyzed binary.
func (r *Result) Image() *Image { return r.img }

// Attribution returns the cycles of interest with instruction mnemonics and
// named module splits; entry 0 is the global peak. It is a deep copy of the
// resolved Report.COIs list (retained for compatibility), so callers may
// sort or edit it without corrupting the sealed Report — which may be
// shared through a Cache.
func (r *Result) Attribution() []COI {
	out := make([]COI, len(r.COIs))
	for i, c := range r.COIs {
		by := make(map[string]float64, len(c.ByModuleMW))
		for m, mw := range c.ByModuleMW {
			by[m] = mw
		}
		c.ByModuleMW = by
		out[i] = c
	}
	return out
}

// Mnemonic renders the instruction at an image address.
func (r *Result) Mnemonic(addr uint16) string {
	if r.img == nil {
		return "?"
	}
	return isa.Mnemonic(r.img, addr)
}

// ConcreteRun is an input-based execution's power characterization.
type ConcreteRun struct {
	// PeakMW is the run's observed peak power (steady state).
	PeakMW float64
	// Trace is the per-cycle power (mW).
	Trace []float64
	// EnergyJ integrates the trace.
	EnergyJ float64
	// NPEJPerCycle is EnergyJ / cycles.
	NPEJPerCycle float64
	// UnionActive marks cells that toggled.
	UnionActive []bool
}

// Combine implements the paper's Chapter 6 rule for multi-programmed
// systems (including dynamic linking): the processor's requirement is the
// union over all co-resident applications — the maximum of the peak power
// and energy bounds, and the union of the potentially-toggled sets.
//
// The rule is only sound for requirements of one design at one operating
// point, so Combine rejects results that disagree on target, library,
// clock, or engine. The combined Result carries a sealed Report (app
// "combined"); its COI attribution is the peak-power winner's, and
// ActiveByModule is left empty (module splits do not union meaningfully).
func Combine(results ...*Result) (*Result, error) {
	if len(results) == 0 {
		return nil, fmt.Errorf("peakpower: no results to combine")
	}
	first := results[0]
	out := &Result{
		Report: Report{
			Schema:    SchemaVersion,
			Target:    first.Target,
			App:       "combined",
			Library:   first.Library,
			FeatureNM: first.FeatureNM,
			ClockHz:   first.ClockHz,
			Engine:    first.Engine,
		},
		Modules:     first.Modules,
		UnionActive: make([]bool, len(first.UnionActive)),
	}
	for i, r := range results {
		if r.Target != first.Target || r.Library != first.Library ||
			r.ClockHz != first.ClockHz || r.Engine != first.Engine {
			return nil, fmt.Errorf(
				"peakpower: cannot combine results from different operating points: result %d (%s) is %s/%s @ %g Hz on %s engine, result 0 (%s) is %s/%s @ %g Hz on %s engine",
				i, r.App, r.Target, r.Library, r.ClockHz, r.Engine,
				first.App, first.Target, first.Library, first.ClockHz, first.Engine)
		}
		if len(r.UnionActive) != len(out.UnionActive) {
			return nil, fmt.Errorf("peakpower: results from different designs cannot be combined")
		}
		if r.PeakPowerMW > out.PeakPowerMW {
			out.PeakPowerMW = r.PeakPowerMW
			out.Best = r.Best
			out.Peaks = r.Peaks
			out.COIs = r.Report.COIs
			out.img = r.img
		}
		if r.PeakEnergyJ > out.PeakEnergyJ {
			out.PeakEnergyJ = r.PeakEnergyJ
			out.BoundingCycles = r.BoundingCycles
		}
		if r.NPEJPerCycle > out.NPEJPerCycle {
			out.NPEJPerCycle = r.NPEJPerCycle
		}
		for i, a := range r.UnionActive {
			if a {
				out.UnionActive[i] = true
			}
		}
		out.Paths += r.Paths
		out.Nodes += r.Nodes
		out.SimCycles += r.SimCycles
		out.Elapsed += r.Elapsed
	}
	out.TotalGates = len(out.UnionActive)
	for _, a := range out.UnionActive {
		if a {
			out.ActiveGates++
		}
	}
	out.Seal()
	return out, nil
}
