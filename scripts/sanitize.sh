#!/usr/bin/env bash
# Sanitizer sweep: builds the tree under ASan+UBSan and runs the tier-1
# test suite plus an explicit pass over the fault-injection label
# (corrupt pcap corpus, impairment stage), then builds under TSan and
# runs the concurrency-heavy tests (metrics registry, campaign runner and
# its worker pool, ring buffer, flight recorder). The werror pass builds
# the whole tree (src, tests, bench, tools, examples, fuzz replay
# runners) with the tree's own -Wall -Wextra plus -Werror, so a new
# warning fails the sweep.
#
# Usage: scripts/sanitize.sh [asan|tsan|werror|all]   (default: all)
#
# Each pass gets its own build directory (build-asan/, build-tsan/,
# build-werror/) so the regular build/ stays untouched.
set -euo pipefail

cd "$(dirname "$0")/.."
mode="${1:-all}"
jobs="$(nproc 2>/dev/null || echo 2)"

run_asan() {
  echo "== ASan + UBSan: full tier-1 suite =="
  cmake -B build-asan -S . -DSVCDISC_SANITIZE=address >/dev/null
  cmake --build build-asan -j "$jobs"
  (cd build-asan && ctest --output-on-failure -j "$jobs")
  # The faults label feeds the parsers corrupt input on purpose — the
  # suite most likely to trip ASan, so it gets a dedicated, visible run.
  echo "== ASan + UBSan: faults label =="
  (cd build-asan && ctest --output-on-failure -j "$jobs" -L faults)
  # The observability label exercises the flight recorder's ring reuse
  # and the provenance ledger's export paths.
  echo "== ASan + UBSan: observability label =="
  (cd build-asan && ctest --output-on-failure -j "$jobs" -L observability)
  # The fuzz label replays every checked-in fuzz corpus (including each
  # crasher that produced a fix) through the harness oracles — this is
  # the pass that caught the merge_streams use-after-free.
  echo "== ASan + UBSan: fuzz corpus replay =="
  (cd build-asan && ctest --output-on-failure -j "$jobs" -L fuzz)
  # The scenario label re-runs every checked-in scenario pack and
  # byte-compares against its goldens — full campaigns under ASan.
  echo "== ASan + UBSan: scenario packs =="
  (cd build-asan && ctest --output-on-failure -j "$jobs" -L scenario)
  # The streaming label covers the sketch layer (HLL/CMS buffers, the
  # per-service map) and the change-point detector — heavy buffer
  # arithmetic worth an explicit sanitized pass.
  echo "== ASan + UBSan: streaming label =="
  (cd build-asan && ctest --output-on-failure -j "$jobs" -L streaming)
  # The adaptive label covers the prober's adaptive mode: the
  # score-bucket queue (bucket release and slot reuse, class runs' bit
  # sets, splits and promotions) against its flat-heap model, the virtual-index decode (hint cells, grid cells
  # taken over by hints), the verifying map, the ping pre-pass, and full
  # fixed-vs-adaptive campaigns — plus the completeness bench smoke,
  # which asserts the recall-at-half-budget bar.
  echo "== ASan + UBSan: adaptive mode =="
  (cd build-asan && ctest --output-on-failure -j "$jobs" -L adaptive)
  # The prober label covers the probe grid both modes share: raw index
  # arithmetic over hints + targets x ports, the /24 row pages and the
  # virtual-index decode, replayed against a reference model for the
  # sweep and for the adaptive mode; and the 8-byte outcome store's bit
  # packing (status, block-relative times, the exact-time side map)
  # against a std::vector model.
  echo "== ASan + UBSan: prober =="
  (cd build-asan && ctest --output-on-failure -j "$jobs" -L prober)
  # The event_core label covers the event heap's index arithmetic and
  # slab reuse, the packet lanes' ring wrap and growth, the pacing slots'
  # bit masks and heap fallback, the dense address-owner tables and the
  # scan detector's pair sets, each replayed against a reference model.
  echo "== ASan + UBSan: event core =="
  (cd build-asan && ctest --output-on-failure -j "$jobs" -L event_core)
  # The figures label renders every table, figure and ablation at
  # SVCDISC_SCALE=0.1 against the goldens in bench/golden/: the report
  # renderers and bench_figures' hook wiring (combined setup hooks,
  # drives, per-report state) under the sanitizers.
  echo "== ASan + UBSan: figures =="
  (cd build-asan && ctest --output-on-failure -j "$jobs" -L figures)
  # The scale label runs the universe suite; SVCDISC_SCALE_SMOKE shrinks
  # its million-address campaign to one /16 block so the ASan pass stays
  # fast (the RSS ceiling is skipped under ASan anyway — shadow memory
  # would dominate it). Its other entries, the dtcp1_18d and scale1m
  # campaigns' RSS ceilings, skip themselves under ASan for the same
  # reason.
  echo "== ASan + UBSan: scale universe =="
  (cd build-asan && SVCDISC_SCALE_SMOKE=1 ctest --output-on-failure -L scale)
}

run_tsan() {
  echo "== TSan: concurrency tests =="
  cmake -B build-tsan -S . -DSVCDISC_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j "$jobs" \
    --target test_metrics test_campaign_runner test_ring_buffer \
    test_trace test_provenance test_streaming test_adaptive
  ./build-tsan/tests/test_metrics
  # Multi-threaded seed sweeps on the worker pool, plus the pool's own
  # unit tests — the parallelism TSan exists for in this repo.
  ./build-tsan/tests/test_campaign_runner
  ./build-tsan/tests/test_ring_buffer
  ./build-tsan/tests/test_trace
  ./build-tsan/tests/test_provenance
  # Streaming analytics and the adaptive prober run serially on the
  # simulator thread; these suites stay as full-campaign smoke coverage
  # under the TSan runtime.
  ./build-tsan/tests/test_streaming
  ./build-tsan/tests/test_adaptive
}

run_werror() {
  echo "== -Werror: every target =="
  cmake -B build-werror -S . -DCMAKE_CXX_FLAGS=-Werror >/dev/null
  cmake --build build-werror -j "$jobs"
}

case "$mode" in
  asan) run_asan ;;
  tsan) run_tsan ;;
  werror) run_werror ;;
  all)  run_werror; run_asan; run_tsan ;;
  *) echo "usage: $0 [asan|tsan|werror|all]" >&2; exit 2 ;;
esac
echo "sanitize: OK ($mode)"
