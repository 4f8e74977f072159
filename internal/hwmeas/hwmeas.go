// Package hwmeas is the substitute for the paper's Chapter 2 hardware
// measurement rig: an MSP430F1610 on a test board, sampled by an
// InfiniiVision DSO-X 2024A oscilloscope at 10 MHz while running at
// 8 MHz (at least one sample per cycle), with <2% run-to-run variation.
//
// The substitution (documented in DESIGN.md): the same gate-level design
// is "fabricated" at a 130 nm operating point (the ULP130 library) and
// clocked at 8 MHz; per-cycle power is computed by activity-based
// analysis (the scope's one-sample-per-cycle view); bounded multiplicative
// measurement noise reproduces the instrument's run-to-run variation.
// This preserves exactly the phenomena Chapter 2 establishes: peak power
// differs across applications, varies with inputs by tens of percent, and
// sits far below the datasheet rating.
package hwmeas

import (
	"fmt"
	"math/rand"

	"repro/internal/baseline"
	"repro/internal/bench"
	"repro/internal/cell"
	"repro/internal/netlist"
	"repro/internal/power"
	"repro/internal/ulp430"
)

// Rig is the simulated measurement setup.
type Rig struct {
	// Netlist is the device under test.
	Netlist *netlist.Netlist
	// Model is the 130nm/8MHz operating point.
	Model power.Model
	// NoisePct is the bounded measurement noise amplitude (fraction).
	NoisePct float64
	// RatedPeakMW is the datasheet peak power rating of the part, from
	// vectorless analysis at the design-tool toggle rate (the 4.8 mW
	// figure in the paper's measurements plays this role).
	RatedPeakMW float64
}

// NewRig builds the measurement setup around a (shared) CPU netlist.
func NewRig(nl *netlist.Netlist) (*Rig, error) {
	if nl == nil {
		var err error
		nl, err = ulp430.BuildCPU()
		if err != nil {
			return nil, err
		}
	}
	m := power.Model{Lib: cell.ULP130(), ClockHz: 8e6}
	rated := designRating(nl, m)
	return &Rig{Netlist: nl, Model: m, NoisePct: 0.008, RatedPeakMW: rated}, nil
}

func designRating(nl *netlist.Netlist, m power.Model) float64 {
	return baseline.DesignToolPeakMW(nl, m, baseline.DefaultToggleRate)
}

// Measurement is one scoped run.
type Measurement struct {
	// PeakMW is the highest sampled power.
	PeakMW float64
	// AvgMW is the mean sampled power.
	AvgMW float64
	// EnergyJ integrates power over the run.
	EnergyJ float64
	// NPEJPerCycle is energy normalized to runtime in cycles.
	NPEJPerCycle float64
	// Cycles is the run length.
	Cycles int
	// TraceMW is the sampled power trace (one sample per cycle).
	TraceMW []float64
}

// Measure runs one benchmark with one drawn input set on the rig.
// noiseSeed separates instrument noise from input draws so repeated
// measurements of the same input set vary by less than 2× NoisePct.
func (rig *Rig) Measure(b *bench.Benchmark, inputSeed, noiseSeed int64) (Measurement, error) {
	img, err := b.Image()
	if err != nil {
		return Measurement{}, err
	}
	ri := rand.New(rand.NewSource(inputSeed))
	inputs := b.GenInputs(ri)
	sys, err := ulp430.NewSystem(rig.Netlist, rig.Model.Lib, img, ulp430.ConcreteInputs, inputs)
	if err != nil {
		return Measurement{}, err
	}
	if b.UsesPort {
		sys.PortIn = b.GenPort(ri)
	}
	run, err := power.RunConcrete(sys, rig.Model, 3_000_000, 0, nil)
	if err != nil {
		return Measurement{}, fmt.Errorf("hwmeas: %s: %w", b.Name, err)
	}
	rn := rand.New(rand.NewSource(noiseSeed))
	meas := Measurement{Cycles: len(run.Trace), TraceMW: make([]float64, len(run.Trace))}
	sum := 0.0
	for i, p := range run.Trace {
		// Bounded multiplicative instrument noise.
		noisy := p * (1 + rig.NoisePct*(2*rn.Float64()-1))
		meas.TraceMW[i] = noisy
		sum += noisy
		// Peak over steady-state execution: the scope operator crops the
		// power-on transient, as the paper's measurements do.
		if i >= power.DefaultWarmup && noisy > meas.PeakMW {
			meas.PeakMW = noisy
		}
	}
	meas.AvgMW = sum / float64(meas.Cycles)
	meas.EnergyJ = sum * 1e-3 / rig.Model.ClockHz
	meas.NPEJPerCycle = meas.EnergyJ / float64(meas.Cycles)
	return meas, nil
}

// InputSweep measures a benchmark across n input sets and reports the
// per-benchmark mean and range of peak power and NPE — the data behind
// Figure 2.2.
type InputSweep struct {
	MeanPeakMW, MinPeakMW, MaxPeakMW float64
	MeanNPE, MinNPE, MaxNPE          float64
	Runs                             int
}

// Sweep runs n input sets.
func (rig *Rig) Sweep(b *bench.Benchmark, n int, seed int64) (InputSweep, error) {
	var sw InputSweep
	for i := 0; i < n; i++ {
		m, err := rig.Measure(b, seed+int64(i)*1000, seed+int64(i)*1000+7)
		if err != nil {
			return sw, err
		}
		if i == 0 {
			sw.MinPeakMW, sw.MaxPeakMW = m.PeakMW, m.PeakMW
			sw.MinNPE, sw.MaxNPE = m.NPEJPerCycle, m.NPEJPerCycle
		}
		sw.MeanPeakMW += m.PeakMW
		sw.MeanNPE += m.NPEJPerCycle
		if m.PeakMW < sw.MinPeakMW {
			sw.MinPeakMW = m.PeakMW
		}
		if m.PeakMW > sw.MaxPeakMW {
			sw.MaxPeakMW = m.PeakMW
		}
		if m.NPEJPerCycle < sw.MinNPE {
			sw.MinNPE = m.NPEJPerCycle
		}
		if m.NPEJPerCycle > sw.MaxNPE {
			sw.MaxNPE = m.NPEJPerCycle
		}
		sw.Runs++
	}
	sw.MeanPeakMW /= float64(sw.Runs)
	sw.MeanNPE /= float64(sw.Runs)
	return sw, nil
}
