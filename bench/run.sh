#!/usr/bin/env bash
# run.sh — BENCHMARK.json's command. Builds the benchmark from source into
# .bench_build/ at the repository root (go's caches and temporary files too, so
# nothing is written outside the checkout) and runs it from the root with the
# arguments given:
#
#   bash bench/run.sh --workload bulk-sft --seed 1 --seconds 15 --trace 0
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build=$root/.bench_build
mkdir -p "$build/tmp"
export GOCACHE=$build/go-cache GOTMPDIR=$build/tmp GOPATH=$build/gopath
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local
go build -C "$root/bench" -o "$build/bench" .
cd "$root"
exec "$build/bench" "$@"
