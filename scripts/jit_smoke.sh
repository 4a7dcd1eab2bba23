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
#      store soak scenario's hook and saves; and six linear monitors on
#      the same hook over one shared input list, which the JIT computes
#      as one linear bank of a full and a partial block of four, the
#      third SAVEing an input the later ones read,
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
guardrail lin-0 { trigger: { FUNCTION("soak:tick") } rule: { 0.5 * LOAD(err) + LOAD(lat) * 0.02 - 0.01 * AVG(lat, 1s) + 2 * LOAD(lin_bias) <= 9 } action: { REPORT("lin 0", err) } }
guardrail lin-1 { trigger: { FUNCTION("soak:tick") } rule: { 0.25 * LOAD(err) + LOAD(lat) * 0.01 - 0.02 * AVG(lat, 1s) + 0.5 * LOAD(lin_bias) <= 1 } action: { REPORT("lin 1", lat) } }
guardrail lin-2 { trigger: { FUNCTION("soak:tick") } rule: { 1.25 * LOAD(err) + LOAD(lat) * 0.001 - 0.001 * AVG(lat, 1s) + 0.01 * LOAD(lin_bias) <= 5 } action: { SAVE(lin_bias, LOAD(err)) } }
guardrail lin-3 { trigger: { FUNCTION("soak:tick") } rule: { 0.1 * LOAD(err) + LOAD(lat) * 0.005 - 0.005 * AVG(lat, 1s) + 1.5 * LOAD(lin_bias) <= 11 } action: { REPORT("lin 3", lin_bias) } }
guardrail lin-4 { trigger: { FUNCTION("soak:tick") } rule: { 3 * LOAD(err) + LOAD(lat) * 0.1 - 0.1 * AVG(lat, 1s) + 4 * LOAD(lin_bias) <= 30 } action: { REPORT("lin 4", lin_bias) } }
guardrail lin-5 { trigger: { FUNCTION("soak:tick") } rule: { 0.75 * LOAD(err) + LOAD(lat) * 0.03 - 0.03 * AVG(lat, 1s) + 1.5 * LOAD(lin_bias) <= 6 } action: { REPORT("lin 5", err, lin_bias) } }
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
