#!/usr/bin/env bash
# Hot-path benchmark runner: builds bench_hotpath in Release (-O2) in
# its own build directory and runs it against the checked-in baseline,
# writing BENCH_hotpath.json (current figures + baseline + speedups)
# at the repo root.
#
# Usage: scripts/bench.sh [extra bench_hotpath env...]
#   NATIVE=1 scripts/bench.sh      # tune for the local CPU (-march=native)
#   SMOKE=1  scripts/bench.sh      # tiny iteration counts (sanity check)
#
# The regular build/ (RelWithDebInfo, used by ctest) is untouched;
# Release figures live in build-bench/.
#
# The emitted JSON records host_cores next to the figures.
set -euo pipefail

cd "$(dirname "$0")/.."
jobs="$(nproc 2>/dev/null || echo 2)"
native="${NATIVE:-0}"

cmake -B build-bench -S . \
  -DCMAKE_BUILD_TYPE=Release \
  -DSVCDISC_NATIVE="$([ "$native" = 1 ] && echo ON || echo OFF)" \
  >/dev/null
cmake --build build-bench -j "$jobs" --target bench_hotpath bench_adaptive

SVCDISC_BASELINE_JSON="${SVCDISC_BASELINE_JSON:-bench/baseline_hotpath.json}" \
SVCDISC_BENCH_OUT="${SVCDISC_BENCH_OUT:-BENCH_hotpath.json}" \
SVCDISC_BENCH_SMOKE="${SMOKE:-0}" \
  ./build-bench/bench/bench_hotpath

# Completeness-per-probe for the budgeted adaptive prober (Release
# figures; exits non-zero if recall at half budget drops below 90%).
echo "== bench_adaptive: completeness per probe =="
SVCDISC_BENCH_SMOKE="${SMOKE:-0}" ./build-bench/bench/bench_adaptive
