// Command perfbench is the repository's benchmark: fresh, uncached
// peakpower.AnalyzeBench calls issued one at a time at one explore worker
// (packed engine, step memo on), on one of three workloads (see
// workloads.go and NOTES.md). Run it from the repository root with
//
//	bash perfbench/run.sh --workload suite --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it measures the end-to-end metrics; with --trace 1 it
// rebuilds every analysis from the layers' public calls and reports where
// the time went. Either way every analysis is checked against the scalar
// oracle's reference hash, and the last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// exploreWorkers is pinned: on a shared two-core host a parallel
// exploration measures the scheduler, not the analysis.
const exploreWorkers = 1

// benchCOI is the number of cycles of interest every analysis keeps:
// cmd/peakpower's default, and the setting the golden Reports in
// peakpower/testdata were sealed with.
const benchCOI = 4

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	workloadName := flag.String("workload", "", "workload: suite, isr or durable")
	seed := flag.Int64("seed", 1, "workload seed: draws the isr windows")
	seconds := flag.Float64("seconds", 30, "measured time after set-up and the warm-up pass")
	trace := flag.Int("trace", 0, "1: traced per-layer run; 0: end-to-end run")
	scratch := flag.String("scratch", ".bench_build/work", "directory for checkpoint journals and span files")
	refsOut := flag.String("write-refs", "", "compute the oracle reference table into this file and exit")
	flag.Parse()

	if *refsOut != "" {
		return writeRefs(*refsOut)
	}
	w, ok := workloadByName(*workloadName)
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		return fmt.Errorf("usage: perfbench --workload suite|isr|durable --seed N --seconds S --trace 0|1")
	}
	refs, err := loadRefs()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*scratch, 0o755); err != nil {
		return err
	}
	journals, err := os.MkdirTemp(*scratch, "journals-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(journals)

	ans := w.draw(rand.New(rand.NewSource(*seed)))
	host := hostRecord(w.name, *seed)
	fmt.Println(host)
	keys := make([]string, len(ans))
	for i, an := range ans {
		keys[i] = an.key()
	}
	fmt.Printf("analyses per pass: %s\n", strings.Join(keys, " "))

	h := &harness{w: w, ans: ans, journals: journals, chk: newChecker(refs)}
	var metrics map[string]metric
	if *trace == 1 {
		var spans []span
		metrics, spans, err = h.traced(*seconds)
		if err == nil {
			path := filepath.Join(*scratch, fmt.Sprintf("trace-%s-seed%d.json", w.name, *seed))
			err = writeSpans(path, host, spans)
		}
	} else {
		metrics, err = h.untraced(*seconds)
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(result{
		Correct:   h.chk.failed == 0,
		Attempted: h.chk.attempted,
		Failed:    h.chk.failed,
		Metrics:   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// hostRecord is the line every output starts with: what the numbers were
// measured on and with.
func hostRecord(workload string, seed int64) string {
	return fmt.Sprintf("host: nproc=%d gomaxprocs=%d go=%s cpu=%q explore_workers=%d workload=%s seed=%d",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel(), exploreWorkers, workload, seed)
}

// cpuModel reads the processor name from /proc/cpuinfo, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
