#!/usr/bin/env bash
# Scenario-pack maintenance: verify every checked-in bundle against its
# goldens, or re-record them all after an intentional behaviour change.
#
# Usage: scripts/scenario.sh [verify|list|record]   (default: verify)
#
#   verify       re-run every pack under tests/scenarios/ and byte-compare
#                (same oracle as `ctest -L scenario`); non-zero on any drift
#   list         show the packs and whether their goldens are recorded
#   record       re-record every pack's goldens (asks for confirmation —
#                re-recording redefines what "correct" means; review the
#                resulting diff before committing)
#
# Uses build/tools/svcdisc_cli; builds it first if missing.
set -euo pipefail

cd "$(dirname "$0")/.."
mode="${1:-verify}"
cli=build/tools/svcdisc_cli
root=tests/scenarios

if [[ ! -x "$cli" ]]; then
  echo "== building svcdisc_cli =="
  cmake -B build -S . >/dev/null
  cmake --build build -j "$(nproc 2>/dev/null || echo 2)" --target svcdisc_cli
fi

packs() {
  for spec in "$root"/*/scenario.json; do
    dirname "$spec"
  done
}

case "$mode" in
  list)
    "$cli" scenario list --root="$root"
    ;;
  verify)
    failed=0
    for dir in $(packs); do
      "$cli" scenario verify "$dir" || failed=1
    done
    if [[ "$failed" -ne 0 ]]; then
      echo "scenario: verification FAILED (re-record deliberately with" \
           "'scripts/scenario.sh record' if the change is intended)" >&2
      exit 1
    fi
    echo "scenario: all packs match their goldens"
    ;;
  record)
    echo "This rewrites the goldens for every pack under $root/ —"
    echo "the diff becomes the new definition of correct behaviour."
    read -r -p "Re-record all scenario goldens? [y/N] " answer
    if [[ "$answer" != "y" && "$answer" != "Y" ]]; then
      echo "aborted"
      exit 1
    fi
    for dir in $(packs); do
      "$cli" scenario record "$dir" --force
    done
    echo "scenario: goldens re-recorded; review with 'git diff $root'"
    ;;
  *)
    echo "usage: $0 [verify|list|record]" >&2
    exit 2
    ;;
esac
