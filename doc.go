// Package repro is a from-scratch Go reproduction of "Determining
// Application-specific Peak Power and Energy Requirements for
// Ultra-low Power Processors" (ASPLOS 2017): symbolic gate-level
// co-analysis of an application binary and a ULP processor netlist that
// produces guaranteed, input-independent peak power and energy bounds.
//
// The public API is package repro/peakpower — a context-aware,
// option-driven, concurrency-safe Analyzer; start there. See README.md
// for the tour and DESIGN.md for the system inventory.
//
// Analyses run on a bit-packed, levelized gate engine (64 nets per
// word op; PERFORMANCE.md documents the design
// and measurements). The original scalar engine is retained as a
// differential-testing oracle, selectable with peakpower.WithEngine:
// it evaluates one gate at a time over the same net-state planes.
// The benchmark harness in bench_test.go regenerates every table and
// figure and carries the engine micro/macro benchmarks behind the
// BENCH_*.json trajectory:
//
//	go test -bench=. -benchmem
package repro
