#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it; every
# argument passes through, e.g.
#
#   bash perfbench/run.sh --workload visitcount --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The build cache, the binary and the
# traced pass's span files stay under .bench_build/ in that directory.
set -euo pipefail
out="$(pwd)/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local
go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" "$@"
