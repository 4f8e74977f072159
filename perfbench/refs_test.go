package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestRefsMatchGoldens cross-checks the oracle reference table against
// the golden Reports the peakpower package pins: two independent
// computations of the same sealed bytes. The goldens are only read.
func TestRefsMatchGoldens(t *testing.T) {
	refs, err := loadRefs()
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range []string{"mult", "tea8", "adcSample", "sensorDuty"} {
		data, err := os.ReadFile(filepath.Join("..", "peakpower", "testdata", "report_"+app+".golden.json"))
		if err != nil {
			t.Fatal(err)
		}
		var golden struct {
			Hash string `json:"hash"`
		}
		if err := json.Unmarshal(data, &golden); err != nil {
			t.Fatalf("%s golden: %v", app, err)
		}
		if got := refs[analysis{App: app}.key()]; got != golden.Hash {
			t.Errorf("%s: reference %q, golden %q", app, got, golden.Hash)
		}
	}
}

// TestRefsCoverEveryAnalysis: every analysis a workload can draw has a
// reference hash, so no seed can issue an unchecked analysis.
func TestRefsCoverEveryAnalysis(t *testing.T) {
	refs, err := loadRefs()
	if err != nil {
		t.Fatal(err)
	}
	for _, an := range everyAnalysis() {
		if refs[an.key()] == "" {
			t.Errorf("%s has no reference hash", an.key())
		}
	}
}
