package peakpower

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/baseline"
	"repro/internal/bench"
	"repro/internal/hwmeas"
)

// TestConcreteBusFault: every concrete measurement path — RunConcrete,
// input-based profiling and the measurement rig — steps through the same
// loop, so a program that stores to ROM fails each of them with the
// system's bus error instead of yielding a measurement.
func TestConcreteBusFault(t *testing.T) {
	a := analyzer(t)
	b := &bench.Benchmark{
		Name: "romStore",
		Source: `
.org 0xf000
.entry main
main:
    mov #5, &0xf000
    mov #1, &0x0126
spin: jmp spin
`,
		GenInputs: func(*rand.Rand) []uint16 { return nil },
	}
	img, err := b.Image()
	if err != nil {
		t.Fatal(err)
	}
	rig, err := hwmeas.NewRig(a.Netlist())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		run  func() error
	}{
		{"RunConcrete", func() error {
			_, err := a.RunConcrete(context.Background(), img, nil, nil, 10_000)
			return err
		}},
		{"baseline.Profile", func() error {
			_, err := baseline.Profile(a.Netlist(), a.Model(), b, 2, 1)
			return err
		}},
		{"Rig.Measure", func() error {
			_, err := rig.Measure(b, 1, 2)
			return err
		}},
	} {
		if err := tc.run(); err == nil || !strings.Contains(err.Error(), "store to non-RAM address") {
			t.Errorf("%s: want the ROM-store bus error, got %v", tc.name, err)
		}
	}
}
