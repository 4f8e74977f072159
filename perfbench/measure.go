package main

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/peakpower"
)

// Set-up is timed this many times before the warm-up pass and again
// after every measured pass; setup_s is the median of all of them.
// Spreading the constructions over the run keeps one slow phase of a
// shared host from owning the median.
const (
	setupsBefore  = 9
	setupsPerPass = 3
)

// harness runs one workload's passes and checks every analysis.
type harness struct {
	w        workload
	ans      []analysis
	journals string // directory for durable checkpoint journals
	chk      *checker
}

// counts are the per-analysis quantities the code makes deterministic at
// one explore worker: they must repeat exactly from pass to pass.
type counts struct {
	Cycles, Nodes, Paths, Branches, Merges, IRQForks, UsefulCycles int
	Steps, MemoHits, MemoMisses                                    int64
	JournalBytes, JournalRecords                                   int64
}

// checker counts operations and fails an analysis that errs, seals a
// Report other than the oracle's, or repeats with different counts.
type checker struct {
	refs      map[string]string
	first     map[string]counts
	attempted int
	failed    int
}

func newChecker(refs map[string]string) *checker {
	return &checker{refs: refs, first: make(map[string]counts)}
}

// fail counts one failed operation and says why on standard error.
func (c *checker) fail(format string, args ...any) {
	c.failed++
	if c.failed <= 20 {
		fmt.Fprintf(os.Stderr, "FAIL "+format+"\n", args...)
	}
}

// repeat fails the analysis if its counts differ from the first time the
// same analysis ran under the same tag (traced and untraced runs observe
// different counters, so they are tagged apart).
func (c *checker) repeat(tag, key string, got counts) bool {
	id := tag + " " + key
	want, seen := c.first[id]
	if !seen {
		c.first[id] = got
		return true
	}
	if got != want {
		c.fail("%s %s: counts %+v differ from the first pass's %+v", tag, key, got, want)
		return false
	}
	return true
}

// check verifies one untraced analysis.
func (c *checker) check(an analysis, res *peakpower.Result, err error) bool {
	c.attempted++
	key := an.key()
	if err != nil {
		c.fail("%s: %v", key, err)
		return false
	}
	want, ok := c.refs[key]
	if !ok {
		c.fail("%s: no reference hash (regenerate refs.json)", key)
		return false
	}
	if res.Hash != want {
		c.fail("%s: Report hash %s, oracle reference %s", key, res.Hash, want)
		return false
	}
	return c.repeat("untraced", key, counts{
		Cycles: res.SimCycles, Nodes: res.Nodes, Paths: res.Paths,
		MemoHits: res.MemoHits, MemoMisses: res.MemoMisses,
	})
}

// setUp constructs the analyzer and assembles the workload's images from
// a collected heap, as a fresh process would, and returns the analyzer
// and the wall and CPU time it took.
func (h *harness) setUp() (a *peakpower.Analyzer, wall, cpu float64, err error) {
	runtime.GC()
	start, cpu0 := time.Now(), cpuSeconds()
	a, err = peakpower.New(peakpower.WithExploreWorkers(exploreWorkers), peakpower.WithCOI(benchCOI))
	if err != nil {
		return nil, 0, 0, err
	}
	done := make(map[string]bool)
	for _, an := range h.ans {
		if done[an.App] {
			continue
		}
		done[an.App] = true
		src, err := peakpower.BenchSource(an.App)
		if err != nil {
			return nil, 0, 0, err
		}
		if _, err := peakpower.Assemble(an.App, src); err != nil {
			return nil, 0, 0, err
		}
	}
	return a, time.Since(start).Seconds(), cpuSeconds() - cpu0, nil
}

// pass issues every analysis once, fresh and uncached, checks each, and
// returns the Reports of those that passed by key. A durable analysis
// journals to a path no earlier analysis used, and the journal is gone
// before the next analysis starts.
func (h *harness) pass(a *peakpower.Analyzer, n int) (map[string]*peakpower.Report, error) {
	out := make(map[string]*peakpower.Report, len(h.ans))
	for i, an := range h.ans {
		opts := an.options()
		var journal string
		if h.w.durable {
			journal = filepath.Join(h.journals, fmt.Sprintf("pass%d-%d.ckpt", n, i))
			opts = append(opts, peakpower.WithCheckpoint(journal))
		}
		res, err := a.AnalyzeBench(context.Background(), an.App, opts...)
		if h.chk.check(an, res, err) {
			out[an.key()] = &res.Report
		}
		if journal != "" {
			// A successful analysis removes its journal itself; a failed
			// one must not leave it to be resumed.
			if err := os.Remove(journal); err != nil && !errors.Is(err, fs.ErrNotExist) {
				return nil, err
			}
		}
	}
	return out, nil
}

// untraced measures the end-to-end metrics. setup_s and pass_s are CPU
// seconds, not wall seconds: on a shared VM the wall clock also counts
// hypervisor steal, which doubled the run-to-run spread (NOTES.md).
func (h *harness) untraced(seconds float64) (map[string]metric, error) {
	var setupWall, setupCPU []float64
	var a *peakpower.Analyzer
	setUp := func() error {
		next, wall, cpu, err := h.setUp()
		if a == nil {
			a = next
		}
		setupWall, setupCPU = append(setupWall, wall), append(setupCPU, cpu)
		return err
	}
	for i := 0; i < setupsBefore; i++ {
		if err := setUp(); err != nil {
			return nil, err
		}
	}
	// The first pass allocates more than later ones (one-time caches),
	// so it warms up and is not recorded.
	if _, err := h.pass(a, 0); err != nil {
		return nil, err
	}
	var wall, cpu, allocMB, rssMB []float64
	start := time.Now()
	for n := 1; n == 1 || time.Since(start).Seconds() < seconds; n++ {
		// Every pass starts from a collected heap with its free pages
		// returned to the kernel, and the kernel's peak-RSS mark reset.
		debug.FreeOSMemory()
		if err := resetPeakRSS(); err != nil {
			return nil, err
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0, c0 := time.Now(), cpuSeconds()
		if _, err := h.pass(a, n); err != nil {
			return nil, err
		}
		wall, cpu = append(wall, time.Since(t0).Seconds()), append(cpu, cpuSeconds()-c0)
		runtime.ReadMemStats(&m1)
		allocMB = append(allocMB, float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		rssMB = append(rssMB, rss)
		for i := 0; i < setupsPerPass; i++ {
			if err := setUp(); err != nil {
				return nil, err
			}
		}
	}
	describe("setup wall", "s", setupWall)
	describe("setup_s (cpu)", "s", setupCPU)
	describe("pass wall", "s", wall)
	describe("pass_s (cpu)", "s", cpu)
	describe("alloc_mb_per_pass", "MB", allocMB)
	describe("max_rss_mb (peak per pass)", "MB", rssMB)
	return map[string]metric{
		"setup_s":           {median(setupCPU), "s"},
		"pass_s":            {median(cpu), "s"},
		"alloc_mb_per_pass": {median(allocMB), "MB"},
		"max_rss_mb":        {median(rssMB), "MB"},
	}, nil
}

// cpuSeconds is the process's user plus system CPU time: every thread,
// the garbage collector's included.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// resetPeakRSS restarts the kernel's peak resident set mark (VmHWM) from
// the current resident set.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads VmHWM, the peak resident set since the last reset.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// describe prints a sample's median, quartiles, range and count.
func describe(name, unit string, xs []float64) {
	q1, q2, q3 := quartiles(xs)
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	fmt.Printf("%s median=%.6g q1=%.6g q3=%.6g min=%.6g max=%.6g %s n=%d\n",
		name, q2, q1, q3, s[0], s[len(s)-1], unit, len(xs))
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// quartiles returns the three quartiles by linear interpolation.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		x := p * float64(len(s)-1)
		i := int(x)
		if i+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[i] + (x-float64(i))*(s[i+1]-s[i])
	}
	return at(0.25), at(0.5), at(0.75)
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
