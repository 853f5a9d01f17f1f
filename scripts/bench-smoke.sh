#!/usr/bin/env sh
# Bench smoke: re-run a tiny deterministic slice of both committed
# artifacts and fail on any drift. The serving check sweeps every
# topology at 200k and 800k req/s against BENCH_serve.json's curves
# (plus the replication and mcnt knee guards), and re-runs the DIMM-flap
# admission/replication A/Bs and the near-memory operator sweep against
# its faults and ops sections. The wall-clock check re-measures one point
# per topology against BENCH_wallclock.json: kernel counters exactly,
# events/sec within 15%. Observer zero-perturbation is a Go test
# (internal/exp TestObserversZeroPerturbation).
#
# Usage: scripts/bench-smoke.sh [seed]   (default 42)
set -e

cd "$(dirname "$0")/.."

SEED="${1:-42}"

echo ">> mcn-serve -check BENCH_serve.json -rates 200000,800000 -seed $SEED"
go run ./cmd/mcn-serve -check BENCH_serve.json -rates 200000,800000 -seed "$SEED"

echo ">> mcn-serve -check BENCH_wallclock.json -seed $SEED"
go run ./cmd/mcn-serve -check BENCH_wallclock.json -seed "$SEED"

echo "bench-smoke: OK"
