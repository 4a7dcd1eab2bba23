#!/bin/sh
# Fleet-runtime smoke (make par-smoke), docs/PARALLEL.md.
#
# End-to-end check of the epoch-barrier runtime through the CLI:
#   1. `grc run --domains 1`, `2` and `3` on the same fleet spec,
#      seed and node count write byte-identical traces, `--metrics`
#      expositions and stdout (the determinism contract: the domain
#      count never changes a result);
#   2. the fleet chaos soak passes with nodes on two domains —
#      invariants (merged-aggregate oracle, REPLACE bookkeeping, hook
#      exception accounting) checked at every epoch barrier while
#      faults land on node 0.
# Budget: well under 30s.
set -eu

ROOT=$(pwd)
GRC="$ROOT/_build/default/bin/grc.exe"
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

fail() {
    echo "par-smoke: $1" >&2
    exit 1
}

# 1. --domains 1 / 2 / 3: byte-identical trace, metrics and stdout.
# Every run writes the same filenames (in its own directory) so
# stdout, which echoes them, can be diffed verbatim.
for k in 1 2 3; do
    mkdir "$TMP/d$k"
    (cd "$TMP/d$k" && "$GRC" run "$ROOT/specs/fleet_tail_latency.grd" --nodes 3 --until 2 \
        --domains "$k" --trace trace.json --metrics metrics.prom > out.txt) \
        || fail "--domains $k run failed"
done
for k in 2 3; do
    cmp -s "$TMP/d1/trace.json" "$TMP/d$k/trace.json" \
        || fail "--domains $k trace diverged from --domains 1"
    cmp -s "$TMP/d1/metrics.prom" "$TMP/d$k/metrics.prom" \
        || fail "--domains $k metrics diverged from --domains 1"
    diff -u "$TMP/d1/out.txt" "$TMP/d$k/out.txt" \
        || fail "--domains $k stdout diverged from --domains 1"
done

# 2. Fleet chaos soak with node event streams on two domains.
"$GRC" soak --scenario fleet --nodes 4 --domains 2 --runs 3 --duration 0.5 \
    > "$TMP/soak.out" \
    || { cat "$TMP/soak.out" >&2; fail "fleet soak under --domains 2 failed"; }

echo "par-smoke: OK (--domains 1/2/3 traces and metrics byte-identical; --domains 2 soak clean)"
