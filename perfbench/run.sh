#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it, passing
# every argument through. Run from the repository root:
#
#   bash perfbench/run.sh --workload get-mcnt --seed 1 --seconds 40 --trace 0
#
# Build outputs, the Go build cache and temporary files stay under
# .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
