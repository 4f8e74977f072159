// Package baseline implements the three conventional techniques the
// paper compares against (Section 4.2, Figure 1.4):
//
//   - design-tool rating: vectorless power analysis of the netlist at the
//     design tool's default input toggle rate (application-oblivious, the
//     most conservative),
//   - stressmark: a genetic algorithm in the style of Kim et al.'s AUDIT
//     framework, evolving instruction sequences that maximize measured
//     peak (or average) power on the gate-level design,
//   - input-based profiling: run the application with several concrete
//     input sets, take the highest observed peak power / energy, and
//     apply a 4/3 guardband (the factor used in prior studies and
//     appropriate for the ~25%+ input-induced variability of Chapter 2).
package baseline

import (
	"fmt"
	"math/rand"

	"repro/internal/bench"
	"repro/internal/netlist"
	"repro/internal/power"
	"repro/internal/ulp430"
)

// Guardband is the profiling guardband factor from prior studies.
const Guardband = 4.0 / 3.0

// DefaultToggleRate is the vectorless analysis default activity factor
// used for the design-specification rating. Calibrated so the rating
// plays the role of the datasheet peak figure: comfortably above the
// strongest evolved stressmark and every application's X-based bound
// (the MSP430F1610's 4.8 mW rating sat ~2.2x above measured application
// peaks in Chapter 2).
const DefaultToggleRate = 0.68

// DesignToolPeakMW computes the design-specification peak power rating:
// every cell is assumed to toggle with the default input toggle rate at
// its maximum-power transition, plus clock and leakage. This is the
// "power and energy analysis of the design using the default input
// toggle rate used by our design tools" baseline.
func DesignToolPeakMW(nl *netlist.Netlist, m power.Model, toggleRate float64) float64 {
	eFJ := 0.0
	for ci := 0; ci < nl.NumCells(); ci++ {
		k := nl.Cell(netlist.CellID(ci)).Kind
		_, _, max := m.Lib.MaxTransition(k)
		eFJ += toggleRate*max + m.Lib.Params(k).EnergyClk
	}
	return m.PowerMW(eFJ) + m.LeakageMW(nl)
}

// DesignToolNPE returns the design-tool peak energy rating normalized to
// runtime (J/cycle): the rated power held for every cycle — it "does not
// consider dynamic variations in the energy requirements of an
// application" (Section 5).
func DesignToolNPE(nl *netlist.Netlist, m power.Model, toggleRate float64) float64 {
	return DesignToolPeakMW(nl, m, toggleRate) * 1e-3 / m.ClockHz
}

// ProfileResult is the outcome of input-based profiling of one
// application.
type ProfileResult struct {
	// ObservedPeakMW is the highest per-cycle power seen over all runs.
	ObservedPeakMW float64
	// MinPeakMW is the lowest per-run peak (the input-induced range).
	MinPeakMW float64
	// ObservedNPE is the highest per-run energy/cycles (J/cycle).
	ObservedNPE float64
	// MinNPE is the lowest per-run NPE.
	MinNPE float64
	// GuardbandedPeakMW = ObservedPeakMW * 4/3.
	GuardbandedPeakMW float64
	// GuardbandedNPE = ObservedNPE * 4/3.
	GuardbandedNPE float64
	// Runs is the number of input sets profiled.
	Runs int
}

// Profile performs input-based power and energy profiling of a benchmark
// with runs random input sets.
func Profile(nl *netlist.Netlist, m power.Model, b *bench.Benchmark, runs int, seed int64) (ProfileResult, error) {
	img, err := b.Image()
	if err != nil {
		return ProfileResult{}, err
	}
	res := ProfileResult{Runs: runs}
	r := rand.New(rand.NewSource(seed))
	for i := 0; i < runs; i++ {
		sys, err := ulp430.NewSystem(nl, m.Lib, img, ulp430.ConcreteInputs, b.GenInputs(r))
		if err != nil {
			return ProfileResult{}, err
		}
		if b.UsesPort {
			sys.PortIn = b.GenPort(r)
		}
		run, err := power.RunConcrete(sys, m, 3_000_000, 0, nil)
		if err != nil {
			return ProfileResult{}, fmt.Errorf("baseline: %s run %d: %w", b.Name, i, err)
		}
		pk, npe := run.PeakMW, run.NPEJPerCycle
		if i == 0 || pk > res.ObservedPeakMW {
			res.ObservedPeakMW = pk
		}
		if i == 0 || pk < res.MinPeakMW {
			res.MinPeakMW = pk
		}
		if i == 0 || npe > res.ObservedNPE {
			res.ObservedNPE = npe
		}
		if i == 0 || npe < res.MinNPE {
			res.MinNPE = npe
		}
	}
	res.GuardbandedPeakMW = res.ObservedPeakMW * Guardband
	res.GuardbandedNPE = res.ObservedNPE * Guardband
	return res, nil
}
