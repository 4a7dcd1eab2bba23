#!/bin/sh
# Observability smoke (make obs-smoke).
#
# End-to-end check of the decision-provenance plane:
#   1. the traced quickstart (Listing 2 against the Figure 2 workload)
#      produces a trace whose t=3s REPORT `grc explain` can walk back
#      to the sim dispatch that caused it, with the rule disassembly,
#      the SAVE effect and the recursive input data flow all present;
#   2. `grc run --metrics` emits the expected OpenMetrics exposition,
#      single-node and 2-node fleet, golden-diffed whole (every series
#      is sim-deterministic);
#   3. the quickstart trace and a traced 3-node fleet run match the
#      SHA-256 digests in scripts/obs_golden_traces.sha256. Every sim
#      dispatch in a trace carries its scheduling `seq`, so this pins
#      event dispatch order across revisions, not just within a build.
set -eu

ROOT=$(pwd)
GRC="$ROOT/_build/default/bin/grc.exe"
QUICKSTART="$ROOT/_build/default/examples/quickstart.exe"
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

fail() {
    echo "obs-smoke: $1" >&2
    exit 1
}

# 1. Traced quickstart, then explain its first (t=3s) REPORT.
(cd "$TMP" && "$QUICKSTART" > quickstart.out) \
    || fail "quickstart run failed"
[ -s "$TMP/quickstart_trace.json" ] || fail "quickstart wrote no trace"
"$GRC" explain "$TMP/quickstart_trace.json" --report 0 > "$TMP/explain.txt" \
    || fail "grc explain failed"
for needle in \
    "sim dispatch" \
    "check low-false-submit" \
    "report low-false-submit" \
    "action SAVE" \
    "inputs read:" \
    "false_submit_rate" \
    "hook blk:io_complete"
do
    grep -q "$needle" "$TMP/explain.txt" \
        || fail "explanation is missing '$needle' (see $TMP/explain.txt)"
done

# 2. OpenMetrics goldens: grc run with telemetry, single-node and fleet.
"$GRC" run specs/listing2.grd --until 4 --trace "$TMP/l2_trace.json" \
    --metrics "$TMP/single.prom" > /dev/null \
    || fail "grc run --metrics failed"
diff -u scripts/obs_golden_single.prom "$TMP/single.prom" \
    || fail "single-node OpenMetrics exposition diverged from golden"

"$GRC" run specs/listing2.grd --until 4 --nodes 2 \
    --metrics "$TMP/fleet.prom" > /dev/null \
    || fail "grc run --nodes 2 --metrics failed"
diff -u scripts/obs_golden_fleet.prom "$TMP/fleet.prom" \
    || fail "fleet OpenMetrics exposition diverged from golden"

# 3. Trace digests: the quickstart trace from step 1 plus a fleet run.
(cd "$TMP" && "$GRC" run "$ROOT/specs/fleet_tail_latency.grd" --nodes 3 --until 10 \
    --trace fleet_trace.json > /dev/null) \
    || fail "grc run --nodes 3 --trace failed"
(cd "$TMP" && sha256sum -c "$ROOT/scripts/obs_golden_traces.sha256") \
    || fail "trace digests diverged from scripts/obs_golden_traces.sha256"

echo "obs-smoke: OK (explained report 0, OpenMetrics goldens and trace digests match)"
