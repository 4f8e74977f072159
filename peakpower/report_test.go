package peakpower

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// Regenerate the golden reports after an intentional schema or analysis
// change with:
//
//	go test ./peakpower -run TestReportGolden -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite the golden report files")

// goldenBenches are the benchmarks pinned by golden files: mult
// exercises the high-power multiplier, tea8 the shift/XOR-only
// minimal-variation kernel, adcSample the interrupt path (schema v2
// Interrupts section, in_isr COI attribution, symbolic arrival forks),
// and sensorDuty the widest interrupt-forking tree — the main workload
// the parallel-exploration determinism suite replays.
var goldenBenches = []string{"mult", "tea8", "adcSample", "sensorDuty"}

// marshalIndented renders a report exactly as the golden files store it.
func marshalIndented(t *testing.T, rep *Report) []byte {
	t.Helper()
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(data, '\n')
}

// goldenReport analyzes one benchmark with the fixed options the golden
// files were generated with.
func goldenReport(t *testing.T, name string) *Report {
	t.Helper()
	res, err := analyzer(t).AnalyzeBench(context.Background(), name, WithCOI(4))
	if err != nil {
		t.Fatal(err)
	}
	return &res.Report
}

// TestReportGolden pins the Report wire format: any schema change — a
// renamed field, a reordered struct, a numeric drift in the analysis —
// shows up as a golden diff and must be accompanied by a SchemaVersion
// decision.
func TestReportGolden(t *testing.T) {
	for _, name := range goldenBenches {
		t.Run(name, func(t *testing.T) {
			rep := goldenReport(t, name)
			got := marshalIndented(t, rep)
			path := filepath.Join("testdata", "report_"+name+".golden.json")
			if *updateGolden {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with -update-golden)", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("report for %s diverged from golden file %s;\nif the change is intentional, regenerate with -update-golden and review the diff", name, path)
			}
		})
	}
}

// TestReportRoundTrip asserts lossless, byte-identical serialization:
// marshal → unmarshal → re-marshal produces the original bytes, and the
// content hash survives the trip.
func TestReportRoundTrip(t *testing.T) {
	for _, name := range goldenBenches {
		t.Run(name, func(t *testing.T) {
			rep := goldenReport(t, name)
			first, err := rep.MarshalJSON()
			if err != nil {
				t.Fatal(err)
			}
			var back Report
			if err := back.UnmarshalJSON(first); err != nil {
				t.Fatal(err)
			}
			second, err := back.MarshalJSON()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(first, second) {
				t.Fatalf("re-marshal not byte-identical:\nfirst:  %.300s\nsecond: %.300s", first, second)
			}
			if err := back.VerifyHash(); err != nil {
				t.Fatal(err)
			}
			dec, err := DecodeReport(first)
			if err != nil {
				t.Fatal(err)
			}
			if dec.App != rep.App || dec.PeakPowerMW != rep.PeakPowerMW {
				t.Fatalf("decode lost data: %+v", dec)
			}
		})
	}
}

func TestReportSealAndVerify(t *testing.T) {
	rep := goldenReport(t, "tea8")
	if rep.Hash == "" {
		t.Fatal("analysis must return a sealed report")
	}
	if err := rep.VerifyHash(); err != nil {
		t.Fatal(err)
	}
	// Deterministic: re-sealing computes the same content address.
	was := rep.Hash
	rep.Seal()
	if rep.Hash != was {
		t.Fatalf("re-seal changed hash: %s -> %s", was, rep.Hash)
	}
	// Tampering is detected.
	rep.PeakPowerMW *= 1.01
	if err := rep.VerifyHash(); err == nil {
		t.Fatal("tampered report must fail hash verification")
	}

	// Unsupported schema versions are rejected.
	rep = goldenReport(t, "tea8")
	rep.Schema = SchemaVersion + 1
	rep.Seal()
	data, err := rep.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeReport(data); err == nil {
		t.Fatal("future schema must be rejected")
	}
}

// TestReportResultConsistency pins the compatibility layer: the promoted
// Report fields and the live Result handles describe the same analysis.
func TestReportResultConsistency(t *testing.T) {
	res, err := analyzer(t).AnalyzeBench(context.Background(), "mult")
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Target != "ulp430" || res.Report.Schema != SchemaVersion {
		t.Fatalf("report identity: %+v", res.Report)
	}
	if len(res.COIs) != len(res.Peaks) {
		t.Fatalf("resolved COIs %d != raw peaks %d", len(res.COIs), len(res.Peaks))
	}
	for i, c := range res.COIs {
		if c.PowerMW != res.Peaks[i].PowerMW || c.Cycle != res.Peaks[i].PathPos {
			t.Fatalf("COI %d disagrees with raw peak: %+v vs %+v", i, c, res.Peaks[i])
		}
	}
	active := 0
	for _, a := range res.UnionActive {
		if a {
			active++
		}
	}
	if res.ActiveGates != active || res.TotalGates != len(res.UnionActive) {
		t.Fatalf("gate counts: %d/%d vs union %d/%d", res.ActiveGates, res.TotalGates, active, len(res.UnionActive))
	}
	sum := 0
	for _, n := range res.ActiveByModule {
		sum += n
	}
	if sum != active {
		t.Fatalf("ActiveByModule sums to %d, want %d", sum, active)
	}
}

// FuzzDecodeReport feeds arbitrary bytes to DecodeReport: it must return
// a report or an error, never panic or hang. A decoded report must
// re-encode to bytes that decode again.
func FuzzDecodeReport(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "report_mult.golden.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add([]byte(`{"schema":2}`))
	f.Add([]byte(`null`))

	f.Fuzz(func(t *testing.T, data []byte) {
		rep, err := DecodeReport(data)
		if err != nil {
			return
		}
		enc, err := rep.MarshalJSON()
		if err != nil {
			t.Fatalf("decoded report does not re-encode: %v", err)
		}
		if _, err := DecodeReport(enc); err != nil {
			t.Fatalf("re-encoded report fails decode: %v", err)
		}
	})
}
