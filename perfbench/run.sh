#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload suite|isr|durable --seed N --seconds S --trace 0|1
#
# Run from the repository root. Build cache, binary, checkpoint journals
# and span files all stay under .bench_build (or $CARGO_TARGET_DIR, when
# set) in the current directory.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/tmp"

export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp
export GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd "$(dirname "$0")" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --scratch "$build/work" "$@"
