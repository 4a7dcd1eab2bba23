#!/bin/sh
# Tiered-execution smoke (make jit-smoke), docs/PERFORMANCE.md.
#
# The tier-invariance contract through the CLI: under both execution
# tiers — tree-walking reference and template JIT —
#   1. the fig. 2 false-submit guardrail, and
#   2. the 3-node fleet spec, whose control monitors read merged
#      (cross-shard) keys,
# must produce byte-identical traces and stdout. Any divergence in
# verdicts, cost accounting, or event ordering shows up as a byte diff.
# Budget: well under 10s.
set -eu

ROOT=$(pwd)
GRC="$ROOT/_build/default/bin/grc.exe"
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

fail() {
    echo "jit-smoke: $1" >&2
    exit 1
}

# Every run writes the same trace filename in its own directory, so
# stdout, which echoes it, can be diffed verbatim.
for tier in tree jit; do
    mkdir "$TMP/$tier" "$TMP/fleet-$tier"
    (cd "$TMP/$tier" && "$GRC" run "$ROOT/specs/listing2.grd" --until 3 --engine "$tier" \
        --trace trace.json > out.txt) \
        || fail "--engine $tier run failed"
    (cd "$TMP/fleet-$tier" && "$GRC" run "$ROOT/specs/fleet_tail_latency.grd" --nodes 3 \
        --until 10 --engine "$tier" --trace trace.json > out.txt) \
        || fail "--engine $tier fleet run failed"
done

for run in "" fleet-; do
    cmp -s "$TMP/${run}tree/trace.json" "$TMP/${run}jit/trace.json" \
        || fail "--engine jit ${run}trace diverged from the tree reference"
    diff -u "$TMP/${run}tree/out.txt" "$TMP/${run}jit/out.txt" \
        || fail "--engine jit ${run}stdout diverged from the tree reference"
done

echo "jit-smoke: OK (tree/jit traces and stdout byte-identical, single node and 3-node fleet)"
