#!/bin/sh
# Tiered-execution smoke (make jit-smoke), docs/PERFORMANCE.md.
#
# The tier-invariance contract through the CLI: under both execution
# tiers — tree-walking reference and template JIT —
#   1. the fig. 2 false-submit guardrail,
#   2. the 3-node fleet spec, whose control monitors read merged
#      (cross-shard) keys, and
#   3. monitors sharing triggers — three on one FUNCTION hook and two on
#      one ON_CHANGE key, in each set one reading and SAVEing a key the
#      next member reads, so the shared frame must be refreshed after
#      the action — which the JIT runs as trigger groups, driven by the
#      store soak scenario's hook and saves,
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

cat > "$TMP/groups.grd" <<'EOF'
guardrail hook-a { trigger: { FUNCTION("soak:tick") } rule: { LOAD(err) <= 8 || LOAD(hook_hot) > 100 } action: { SAVE(hook_hot, LOAD(err)) } }
guardrail hook-b { trigger: { FUNCTION("soak:tick") } rule: { LOAD(hook_hot) <= 9 && AVG(lat, 1s) > 0 } action: { REPORT("hook b", hook_hot) } }
guardrail hook-c { trigger: { FUNCTION("soak:tick") } rule: { AVG(lat, 1s) <= 400 || LOAD(hook_hot) < 1 } action: { REPORT("hook c", lat) } }
guardrail change-a { trigger: { ON_CHANGE(rate) } rule: { SUM(rate, 100ms) <= 60 || LOAD(rate_hot) > 1000 } action: { SAVE(rate_hot, SUM(rate, 100ms)) } }
guardrail change-b { trigger: { ON_CHANGE(rate) } rule: { LOAD(rate_hot) <= 55 } action: { REPORT("rate hot", rate_hot) } }
EOF

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
    "$GRC" soak --scenario store --seed 1 --runs 1 --duration 1 --plan '' \
        --spec "$TMP/groups.grd" --engine "$tier" --dump-trace > "$TMP/groups-$tier.txt" \
        || fail "--engine $tier shared-trigger soak failed"
done

diff -u "$TMP/groups-tree.txt" "$TMP/groups-jit.txt" \
    || fail "--engine jit shared-trigger trace and stdout diverged from the tree reference"

for run in "" fleet-; do
    cmp -s "$TMP/${run}tree/trace.json" "$TMP/${run}jit/trace.json" \
        || fail "--engine jit ${run}trace diverged from the tree reference"
    diff -u "$TMP/${run}tree/out.txt" "$TMP/${run}jit/out.txt" \
        || fail "--engine jit ${run}stdout diverged from the tree reference"
done

echo "jit-smoke: OK (tree/jit traces and stdout byte-identical, single node, 3-node fleet and shared triggers)"
