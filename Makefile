GO ?= go
BENCH_JSON ?= BENCH_$(shell date +%F).json

# The bench targets pipe `go test` into benchjson; without pipefail a
# failing benchmark run would still exit 0 via the converter.
SHELL := /usr/bin/env bash
.SHELLFLAGS := -o pipefail -c

.PHONY: all build vet fmt-check test race race-irq race-parallel determinism memo-guard engine-guard fuzz-smoke bench bench-smoke perfbench-check profile serve smoke crash-smoke example-smoke fleet-smoke ci clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Formatting gate: fails, listing the files, if any Go file in the tree
# is not gofmt-clean.
fmt-check:
	@files=$$(gofmt -l .); test -z "$$files" || { echo "gofmt needed:"; echo "$$files"; exit 1; }

test:
	$(GO) test ./...

# Full suite under the race detector — exercises the peakpower
# package's concurrency contract (shared Analyzer, AnalyzeAll pool).
race:
	$(GO) test -race ./...

# Interrupt-path tests only, under the race detector: the peripheral
# bus, IRQ entry/return, symbolic arrival forking (sequential and
# parallel), and the public WithInterrupts surface. Fast enough to run
# on every commit.
race-irq:
	$(GO) test -race -run 'Interrupt|IRQ|Periph|Timer|ADC|Radio|Vector|Bus|Parallel' \
		./internal/periph/... ./internal/ulp430/... ./internal/symx/... ./peakpower/...

# The parallel-exploration determinism suite under the race detector:
# the work-stealing engine's tree/budget/error parity with the
# sequential engine, the power sink's scope fold and canonical
# candidate merge, and the sealed Report's bit-identity across worker
# counts.
race-parallel:
	$(GO) test -race -run 'Parallel|ExploreWorkers|SnapPool|FuzzExplore|EnginesAgree|FuzzScopeFold|MergeParallelReplay' \
		./internal/symx/... ./internal/gsim/... ./internal/power/ ./peakpower/...

# The determinism suites twenty times over: an assertion that depends on
# goroutine scheduling fails here in review instead of intermittently on
# main.
determinism:
	$(GO) test -count=20 -run 'TestMemoDeterminism|Determinism|TestParallel' ./peakpower/ ./internal/symx/

# Memo-soundness guard: the whole-step memo table is a pure
# execution-speed mechanism, so sealed Reports must be byte-identical
# with memoization on or off — across engines, worker
# counts, SIGKILL-resume, and a 2-worker fleet, all diffed against the
# committed golden hashes. CI fails here if a memo change ever leaks
# into Report bytes. The gsim half checks the table itself: its
# admission rule (nothing recorded before a revisit), its chain (cached
# clock edges and predicted successors across staged inputs, restores,
# and colliding records that leave a stale link) and every replayed cycle, on random designs and on the
# ULP430 with interrupts, against the scalar engine; the one-cycle rewind
# against Restore of a full snapshot (planes, activity, bound, staged
# inputs, cycle and memo chain, on both engines, and on the ULP430 with
# interrupts and memory writes) and its refusal rule. The power half
# checks the union stamp: per-task activity lists and the union equal
# with the memo on and off.
memo-guard:
	$(GO) test -count=1 -run 'TestMemo|TestCacheKeyIgnoresMemo' ./peakpower/
	$(GO) test -count=1 -run 'TestStepMemo|TestEnginesAgreeOnRandomNetlists|TestEnginesAgreeOnInterruptRuns|TestRewind' ./internal/gsim/
	$(GO) test -count=1 -run 'TestActiveUnionMemoStamp' ./internal/power/

# Gather/layout guard: the packed plan's gather programs decoded back
# to every lane's source position, the packed engine against the scalar
# oracle on random designs (bus-shaped ones included: multi-chunk
# batches, word-crossing runs, broadcast fan-in), after a restore and
# with snapshots swapped between the engines, compiled ports (word reads
# and drives against the per-net path, on random designs and the
# ULP430, under both engines), the merge key's flip-flop hash (its
# mask covers exactly the flip-flops; equal hashes go with equal
# flip-flop values on both engines, on random designs and the ULP430),
# the portable state codec (the engines'
# shared state format) within and across engines, and the sealed
# Reports of the benchmark suite under both engines against the
# committed golden hashes. A gather or layout bug fails here, apart from
# the memo guard.
engine-guard:
	$(GO) test -count=1 -run 'TestEnginesAgree|TestBoundEnergyAfterRestore|TestPackedPlan|TestGatherPrograms|TestPortWords|TestStateHash' ./internal/gsim/ ./internal/netlist/
	$(GO) test -count=1 -run 'TestPortable|TestRestorePortable' ./internal/ulp430/
	$(GO) test -count=1 -run 'TestEnginesAgreeOnBenchmarkSuite|TestReportGolden' ./peakpower/

# Short native-fuzz session over the differential target: Explore and
# ExploreParallel against the test suite's reference explorer on
# generated programs and interrupt windows, trees and power reductions
# required to agree exactly. Then the peak fold (the COI list, whose
# head is the peak) on its own: whole streams against the same streams
# cut into segments and replayed canonically. Then the four readers of bytes from disk
# or the network (the checkpoint journal loader, fleet task and result
# records, checkpoint portable states, sealed Reports) on arbitrary
# input: an error, never a panic or a hang. Their real seeds are large
# (a journal holds many multi-KB records), so minimizing each new corpus
# entry is capped at 100 runs; uncapped, it would take the whole
# session. CI's fuzz smoke.
fuzz-smoke:
	$(GO) test -fuzz=FuzzExplore -fuzztime=10s ./internal/symx/
	$(GO) test -run='^$$' -fuzz='^FuzzScopeFold$$' -fuzztime=5s -fuzzminimizetime=100x ./internal/power/
	$(GO) test -run='^$$' -fuzz='^FuzzCheckpointJournal$$' -fuzztime=5s -fuzzminimizetime=100x ./internal/symx/
	$(GO) test -run='^$$' -fuzz='^FuzzFleetRecords$$' -fuzztime=5s -fuzzminimizetime=100x ./internal/symx/
	$(GO) test -run='^$$' -fuzz='^FuzzDecodePortable$$' -fuzztime=5s -fuzzminimizetime=100x ./internal/ulp430/
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeReport$$' -fuzztime=5s -fuzzminimizetime=100x ./peakpower/

# The table/figure-regenerating benchmark harness plus the gate-engine
# benchmarks; results are captured as a BENCH_*.json trajectory point
# (see PERFORMANCE.md).
bench:
	$(GO) test -bench=. -benchmem -run='^$$' . | tee /dev/stderr | $(GO) run ./cmd/benchjson -out $(BENCH_JSON)

# One-iteration smoke form of the same run — CI's per-commit artifact.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run='^$$' . | tee /dev/stderr | $(GO) run ./cmd/benchjson -out $(BENCH_JSON)

# perfbench is its own Go module, so the root `go build ./...` never
# compiles it; vet and test it here so an API change in the packages it
# calls cannot break the benchmark silently.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# CPU/heap profile of the packed engine under the end-to-end macro
# benchmark; the recipe PERFORMANCE.md documents.
profile:
	$(GO) test -run='^$$' -bench='BenchmarkEngineCoAnalysis/packed' -benchtime=5x \
		-cpuprofile=cpu.prof -memprofile=mem.prof .
	$(GO) tool pprof -top -nodecount=20 cpu.prof

# Run the HTTP analysis service (see cmd/peakpowerd and README).
serve:
	$(GO) run ./cmd/peakpowerd -addr :8090

# End-to-end service smoke: start peakpowerd, POST one analysis, assert
# HTTP 200 and a parseable sealed Report (also CI's smoke step).
SMOKE_ADDR ?= 127.0.0.1:8097
smoke:
	$(GO) build -o /tmp/peakpowerd ./cmd/peakpowerd
	/tmp/peakpowerd -addr $(SMOKE_ADDR) & pid=$$!; \
	trap 'kill $$pid' EXIT; \
	for i in $$(seq 1 50); do \
		curl -sf http://$(SMOKE_ADDR)/healthz >/dev/null 2>&1 && break; sleep 0.2; \
	done; \
	curl -sf http://$(SMOKE_ADDR)/healthz | grep -q '"status":"ok"' && \
	code=$$(curl -s -o /tmp/peakpowerd-smoke.json -w '%{http_code}' \
		-X POST http://$(SMOKE_ADDR)/v1/analyze \
		-d '{"target":"ulp430","bench":"mult","options":{"coi":4}}') && \
	test "$$code" = 200 && \
	grep -q '"schema":2' /tmp/peakpowerd-smoke.json && \
	grep -q '"hash":"sha256:' /tmp/peakpowerd-smoke.json && \
	echo "peakpowerd smoke: OK ($$(wc -c < /tmp/peakpowerd-smoke.json) bytes)"

# Crash-recovery smoke: SIGKILL a real peakpowerd mid-exploration (its
# job's checkpoint journal visibly growing), restart it on the same data
# directory, and require the resumed job's sealed Report to be
# byte-identical to an uninterrupted analysis — at two exploration
# worker counts. The durable-restart and fault-injection suites ride
# along.
crash-smoke:
	$(GO) test -count=1 -v -run 'TestDaemonCrashResume|TestJobDurableRestartRecovery|TestCheckpointResume' \
		./cmd/peakpowerd/ ./peakpower/

# End-to-end example smoke: the interrupt-driven sensornode walkthrough
# (symbolic bound vs a concrete sweep over every arrival latency) plus
# the CLI's -irq path. Both must exit 0; sensornode additionally
# self-checks that no swept arrival exceeds the symbolic bound.
example-smoke:
	$(GO) run ./examples/sensornode
	$(GO) run ./cmd/peakpower -bench adcSample -irq 8:20

# Multi-node smoke: a coordinator peakpowerd plus two worker replicas
# split one real benchmark exploration over the fleet HTTP protocol
# (zero coordinator local slots, so every task crosses a lease), and the
# sealed Report must hash-match a single-node sequential analysis. The
# in-process fleet determinism and lease-expiry suites ride along.
fleet-smoke:
	$(GO) test -count=1 -v -run 'TestFleet' ./cmd/peakpowerd/
	./scripts/fleet_smoke.sh

ci: build vet fmt-check race race-irq race-parallel determinism memo-guard engine-guard fuzz-smoke perfbench-check smoke crash-smoke fleet-smoke example-smoke

clean:
	$(GO) clean ./...
	rm -f cpu.prof mem.prof repro.test
