package power

import (
	"fmt"

	"repro/internal/ulp430"
)

// ConcreteRun is the power characterization of one concrete execution,
// measured from reset to halt.
type ConcreteRun struct {
	// PeakMW is the run's observed peak power (steady state: the first
	// DefaultWarmup cycles are excluded).
	PeakMW float64
	// Trace is the per-cycle power (mW, leakage included).
	Trace []float64
	// EnergyJ integrates the trace.
	EnergyJ float64
	// NPEJPerCycle is EnergyJ / cycles.
	NPEJPerCycle float64
	// UnionActive marks cells that toggled (after warmup).
	UnionActive []bool
}

// RunConcrete resets a concrete-input system and steps it to halt,
// measuring every cycle — the one step loop behind RunConcrete in the
// public API, input-based profiling, stressmark evaluation and the
// measurement rig. When poll is non-nil it is called before every
// pollEvery-th cycle with the cycles run so far; a non-nil return aborts
// the run. The run also fails if the system reports a bus error (Err) or
// does not halt within maxCycles. Errors are unprefixed: callers name the
// run.
func RunConcrete(sys *ulp430.System, m Model, maxCycles, pollEvery int, poll func(cycles int) error) (*ConcreteRun, error) {
	sink := NewSink(sys, m, nil, 0)
	sys.Reset()
	for c := 0; c < maxCycles && !sys.Halted(); c++ {
		if poll != nil && c%pollEvery == 0 {
			if err := poll(c); err != nil {
				return nil, fmt.Errorf("aborted after %d cycles: %w", c, err)
			}
		}
		sys.Step()
		sink.OnCycle(sys)
	}
	if err := sys.Err(); err != nil {
		return nil, err
	}
	if !sys.Halted() {
		return nil, fmt.Errorf("did not halt within %d cycles", maxCycles)
	}
	run := &ConcreteRun{PeakMW: sink.PeakMW(), Trace: sink.Trace, UnionActive: sink.UnionActive}
	for _, mw := range sink.Trace {
		run.EnergyJ += mw * 1e-3 / m.ClockHz
	}
	run.NPEJPerCycle = run.EnergyJ / float64(len(sink.Trace))
	return run, nil
}
