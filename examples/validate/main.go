// Validate: the Section 3.4 validation experiment — check that the
// X-based analysis bounds every input-based execution, both in which
// gates can toggle (Figure 3.4) and in per-cycle power (Figure 3.5).
//
//	go run ./examples/validate
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"repro/peakpower"
)

func main() {
	ctx := context.Background()
	analyzer, err := peakpower.NewFor(ctx, peakpower.DefaultTarget)
	if err != nil {
		log.Fatal(err)
	}
	req, err := analyzer.AnalyzeBench(ctx, "mult")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("X-based analysis of %s: %d potentially-toggled gates, peak %.3f mW\n",
		req.App, req.ActiveGates, req.PeakPowerMW)

	img := req.Image()
	r := rand.New(rand.NewSource(7))
	for set := 1; set <= 5; set++ {
		inputs, err := peakpower.BenchInputs("mult", r)
		if err != nil {
			log.Fatal(err)
		}
		run, err := analyzer.RunConcrete(ctx, img, inputs, nil, 1_000_000)
		if err != nil {
			log.Fatal(err)
		}
		common, inputOnly := 0, 0
		for ci, act := range run.UnionActive {
			if !act {
				continue
			}
			if req.UnionActive[ci] {
				common++
			} else {
				inputOnly++
			}
		}
		// Per-cycle bound (mult is fork-free: traces align).
		violations := 0
		for c := range run.Trace {
			if c < len(req.PeakTrace) && run.Trace[c] > req.PeakTrace[c]+1e-9 {
				violations++
			}
		}
		fmt.Printf("input set %d: peak %.3f mW <= bound; toggled %4d gates (%d outside X-set, must be 0); %d per-cycle violations\n",
			set, run.PeakMW, common+inputOnly, inputOnly, violations)
		if inputOnly > 0 || violations > 0 || run.PeakMW > req.PeakPowerMW {
			log.Fatal("VALIDATION FAILED")
		}
	}
	fmt.Println("validation: PASS — the X-based analysis bounds every input-based execution")
}
