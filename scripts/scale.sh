#!/usr/bin/env bash
# Scale smoke: proves the internet-scale address layer end to end
# (DESIGN.md §14).
#
#  1. `ctest -L scale` — the test_scale suite: ScaleUniverse profile and
#     reply semantics, lazy materialization, and a full million-address
#     campaign with an in-process peak-RSS ceiling (getrusage); and
#     test_sweep_rss / test_adaptive_rss / test_scale_adaptive_rss (all
#     from test_campaign_rss), the same kind of ceiling on a fixed-sweep
#     and a half-budget adaptive dtcp1_18d campaign, and on an adaptive
#     scale1m campaign at a 20,000-probe budget (60 s ctest timeout).
#  2. Two same-seed CLI campaigns over the scale1m scenario, with the
#     JSON exports diffed — `wall_sec` is the only field allowed to
#     differ (it is the one intentionally nondeterministic export field).
#  3. Two same-seed `run --streaming` passes over scale1m (DESIGN.md
#     §15): the streaming artifact must be byte-identical across the
#     reruns, detect at least one scan burst (tiny's external scanner
#     fleet), and the sketch layer must stay O(services) next to the RSS
#     ceiling the suite already asserts.
#
# Usage: scripts/scale.sh
set -euo pipefail

cd "$(dirname "$0")/.."
jobs="$(nproc 2>/dev/null || echo 2)"

cmake -B build -S . >/dev/null
cmake --build build -j "$jobs" --target test_scale test_campaign_rss \
  svcdisc_cli

echo "== scale: ctest -L scale =="
(cd build && ctest --output-on-failure -L scale)

echo "== scale: scale1m CLI campaign, same-seed rerun =="
out1="$(mktemp)" out2="$(mktemp)"
trap 'rm -f "$out1" "$out2"' EXIT
for out in "$out1" "$out2"; do
  ./build/tools/svcdisc_cli campaign --scenario scale1m --seeds 1 --scans 1 \
    --json "$out"
done
if ! diff <(grep -v '"wall_sec"' "$out1") <(grep -v '"wall_sec"' "$out2"); then
  echo "scale: FAIL (same-seed rerun changed campaign output)" >&2
  exit 1
fi

echo "== scale: scale1m --streaming, same-seed rerun =="
s1="$(mktemp)" s2="$(mktemp)" summary="$(mktemp)"
trap 'rm -f "$out1" "$out2" "$s1" "$s2" "$summary"' EXIT
./build/tools/svcdisc_cli run --scenario scale1m --seed 1 --scans 1 \
  --streaming-out "$s1" | tee "$summary"
./build/tools/svcdisc_cli run --scenario scale1m --seed 1 --scans 1 \
  --streaming-out "$s2" >/dev/null
if ! cmp -s "$s1" "$s2"; then
  echo "scale: FAIL (streaming artifact differs across same-seed reruns)" >&2
  exit 1
fi
if ! grep -q '"kind":"scan_burst"' "$s1"; then
  echo "scale: FAIL (no scan burst detected over the scanner fleet)" >&2
  exit 1
fi

# Sketch memory must scale with services, not with the million-address
# universe: parse "sketches N bytes" from the run summary and hold it to
# a fixed budget (global sketches + a few KB per discovered service).
sketch_bytes="$(sed -n 's/.*sketches \([0-9]*\) bytes.*/\1/p' "$summary")"
services="$(sed -n 's/^streaming: [0-9]* windows, \([0-9]*\) services.*/\1/p' \
  "$summary")"
budget=$(( 1024 * 1024 + services * 4096 ))
if [ -z "$sketch_bytes" ] || [ "$sketch_bytes" -gt "$budget" ]; then
  echo "scale: FAIL (sketch memory ${sketch_bytes:-?} bytes exceeds" \
    "O(services) budget $budget for $services services)" >&2
  exit 1
fi
echo "scale: streaming sketches $sketch_bytes bytes for $services services" \
  "(budget $budget)"

echo "scale: OK"
