package ulp430

import (
	"repro/internal/bench"
	"repro/internal/cell"
	"repro/internal/gsim"
	"repro/internal/isa"
	"repro/internal/netlist"
)

// DesignVariant is one analyzable design point of the ULP430: the gate-level
// netlist paired with a characterized library, operating clock, exploration
// budgets, and a benchmark suite. It implements the public peakpower.Target
// interface (structurally — this package cannot import peakpower), so every
// variant plugs into the analyzer, the report pipeline, and the analysis
// service unchanged. The standard core is Standard(); internal/sizing and
// internal/opt derive the Chapter 5 design-optimization variants from it.
type DesignVariant struct {
	name      string
	desc      string
	lib       *cell.Library
	clockHz   float64
	maxCycles int
	maxNodes  int
}

// NewDesignVariant describes a ULP430 design point. A nil lib defaults to
// ULP65; the suite is bench.Full() and the budgets are the standard
// exploration limits.
func NewDesignVariant(name, desc string, lib *cell.Library, clockHz float64) *DesignVariant {
	if lib == nil {
		lib = cell.ULP65()
	}
	return &DesignVariant{
		name:      name,
		desc:      desc,
		lib:       lib,
		clockHz:   clockHz,
		maxCycles: 2_000_000,
		maxNodes:  10_000,
	}
}

// Name returns the registry name of the design point (e.g. "ulp430").
func (v *DesignVariant) Name() string { return v.name }

// Description summarizes the design point for target listings.
func (v *DesignVariant) Description() string { return v.desc }

// Build constructs the variant's gate-level netlist.
func (v *DesignVariant) Build() (*netlist.Netlist, error) { return BuildCPU() }

// Library returns the variant's default standard-cell library.
func (v *DesignVariant) Library() *cell.Library { return v.lib }

// ClockHz returns the variant's default operating clock.
func (v *DesignVariant) ClockHz() float64 { return v.clockHz }

// Budgets returns the variant's default exploration budgets.
func (v *DesignVariant) Budgets() (maxCycles, maxNodes int) {
	return v.maxCycles, v.maxNodes
}

// Benchmarks returns the variant's benchmark suite: the paper suite plus
// the interrupt-driven ISR suite.
func (v *DesignVariant) Benchmarks() []*bench.Benchmark { return bench.Full() }

// NewSystem couples the built netlist to behavioral memory under the chosen
// gate engine, library, and input mode.
func (v *DesignVariant) NewSystem(engine gsim.Engine, n *netlist.Netlist, lib *cell.Library, img *isa.Image, mode InputMode, inputs []uint16) (*System, error) {
	return NewSystemEngine(engine, n, lib, img, mode, inputs)
}

// Standard returns the baseline ULP430 design point: ULP65 cells at the
// paper's 1 V / 100 MHz operating point with the full Table 4.1 suite.
func Standard() *DesignVariant {
	return NewDesignVariant("ulp430",
		"baseline ULP430 core, ULP65 cells @ 100 MHz (the paper's openMSP430-class operating point)",
		cell.ULP65(), 100e6)
}
