package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"

	"repro/peakpower"
)

// refsJSON is the reference table: the sealed Report.Hash of every
// analysis in everyAnalysis, computed by the scalar oracle. Regenerate it
// after an intentional change to the analysis or the Report format with
//
//	go run . -write-refs refs.json
//
// from this directory.
//
//go:embed refs.json
var refsJSON []byte

// refTable is the layout of refs.json.
type refTable struct {
	// Oracle states how the hashes were computed.
	Oracle string `json:"oracle"`
	// Hashes maps analysis key to sealed Report.Hash.
	Hashes map[string]string `json:"hashes"`
}

func loadRefs() (map[string]string, error) {
	var t refTable
	if err := json.Unmarshal(refsJSON, &t); err != nil {
		return nil, fmt.Errorf("decoding refs.json: %w", err)
	}
	return t.Hashes, nil
}

// oracleConfig describes the reference configuration written to refs.json.
const oracleConfig = "scalar engine, step memo off, 1 explore worker; Engine relabeled packed and resealed"

// writeRefs computes the reference hash of every analysis with the
// repository's differential oracle — the scalar engine with memoization
// off at one explore worker — independent of the packed engine, the step
// memo and the checkpoint path the benchmark measures. Engine is part of
// the sealed Report, so each Report is relabeled "packed" and resealed:
// the packed engine must reproduce it byte for byte.
func writeRefs(path string) error {
	a, err := peakpower.New(peakpower.WithCOI(benchCOI), peakpower.WithExploreWorkers(1),
		peakpower.WithEngine(peakpower.EngineScalar), peakpower.WithMemo(false))
	if err != nil {
		return err
	}
	t := refTable{Oracle: oracleConfig, Hashes: make(map[string]string)}
	for _, an := range everyAnalysis() {
		res, err := a.AnalyzeBench(context.Background(), an.App, an.options()...)
		if err != nil {
			return fmt.Errorf("reference for %s: %w", an.key(), err)
		}
		rep := res.Report
		rep.Engine = peakpower.EnginePacked.String()
		rep.Seal()
		t.Hashes[an.key()] = rep.Hash
		fmt.Fprintf(os.Stderr, "%-22s %s (%d cycles)\n", an.key(), rep.Hash, rep.SimCycles)
	}
	data, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
