#!/bin/sh
# Live control-plane smoke (make serve-smoke), docs/SERVE.md.
#
# Drives one scripted `grc serve` session end to end over the unix
# socket:
#   1. daemon boots a fleet from a spec and listens (--hold: the sim
#      advances only on `advance` commands, so every timestamp and
#      span id below is deterministic);
#   2. a good push admits, canaries onto node 0 and promotes after
#      three clean epoch-barrier verdicts;
#   3. a lint-rejected push (GRL003 division by zero) bounces with
#      structured diagnostics and a non-zero client exit;
#   4. a guardrail-violating push admits, then auto-rolls-back at the
#      first verdict (fire rate over --max-fire-rate), restoring the
#      promoted version;
#   5. a client that sends a request and hangs up without reading the
#      reply costs only its own connection: the daemon keeps serving;
#      so does a client that connects and stays silent (dropped at the
#      daemon's 1 s request deadline), and one whose request is over
#      the 1 MiB size cap (a structured error reply);
#   6. the audit log of the whole session byte-diffs against the
#      checked-in golden;
#   7. a --nodes 1 serve session's trace byte-diffs against the same
#      spec under plain `grc run` (the control plane costs zero trace
#      events on the steady path).
# Budget: well under 30s.
set -eu

ROOT=$(pwd)
GRC="$ROOT/_build/default/bin/grc.exe"
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

SOCK="$TMP/grc.sock"

fail() {
    echo "serve-smoke: $1" >&2
    [ -f "$TMP/serve.log" ] && sed 's/^/serve-smoke:   daemon: /' "$TMP/serve.log" >&2
    exit 1
}

# Pushed specs. Contents are part of the golden audit log (digests),
# so they are fixed here rather than generated.
cat > "$TMP/good.grd" <<'EOF'
guardrail serve-tail {
  trigger: { TIMER(0, 100ms) },
  rule: { COUNT(latency_us, 1s) == 0 || QUANTILE(latency_us, 0.99, 1s) <= 5e8 },
  action: {
    REPORT("p99 degraded", latency_us)
    REPLACE("lat_predictor")
  }
}
EOF
cat > "$TMP/hot.grd" <<'EOF'
guardrail serve-heartbeat {
  trigger: { TIMER(0, 10ms) },
  rule: { COUNT(serve_heartbeat, 1s) >= 1 },
  action: {
    REPORT("no heartbeat", serve_heartbeat)
    REPLACE("lat_predictor")
  }
}
EOF

# 1. Boot the daemon: 3-node fleet, held clock, audited.
"$GRC" serve specs/latency_trend.grd --nodes 3 --hold --seed 42 \
    --socket "$SOCK" --audit-log "$TMP/audit.jsonl" --who boot \
    > "$TMP/serve.log" 2>&1 &
SERVE_PID=$!
i=0
while [ ! -S "$SOCK" ]; do
    i=$((i + 1))
    [ "$i" -gt 100 ] && fail "daemon never opened its socket"
    kill -0 "$SERVE_PID" 2>/dev/null || fail "daemon exited before listening"
    sleep 0.1
done

# 2. Good push: admitted, canaried, promoted after 4 barriers
#    (install + 3 clean verdicts).
"$GRC" push --socket "$SOCK" --who alice "$TMP/good.grd" > "$TMP/good.out" \
    || fail "good push rejected"
grep -q "^v2 admitted" "$TMP/good.out" || fail "good push not admitted as v2"
"$GRC" push --socket "$SOCK" --advance 4 > /dev/null || fail "advance failed"
"$GRC" push --socket "$SOCK" --status --json > "$TMP/status1.out" || fail "status failed"
grep -q '"phase":"steady"' "$TMP/status1.out" || fail "not steady after promotion"
grep -q '"promotions":1' "$TMP/status1.out" || fail "good push did not promote"

# 3. Lint-rejected push: structured diagnostics, client exits 1.
if "$GRC" push --socket "$SOCK" --who mallory specs/bad/div_by_zero.grd \
    > "$TMP/bad.out" 2>&1; then
    fail "GRL003 spec was accepted"
fi
grep -q "GRL003" "$TMP/bad.out" || fail "rejection lost its GRL003 diagnostic"

# 4. Guardrail-violating push: admits, then the first verdict rolls
#    it back and restores v2.
"$GRC" push --socket "$SOCK" --who mallory "$TMP/hot.grd" > "$TMP/hot.out" \
    || fail "hot push should admit (it only fails at runtime)"
"$GRC" push --socket "$SOCK" --advance 2 > /dev/null || fail "advance failed"
"$GRC" push --socket "$SOCK" --status --json > "$TMP/status2.out" || fail "status failed"
grep -q '"rollbacks":1' "$TMP/status2.out" || fail "hot push did not roll back"
grep -q '"version":2' "$TMP/status2.out" || fail "rollback did not restore v2"

# 5. A client that hangs up unread: the reply's write fails with EPIPE,
#    and the daemon must drop that connection, not die of SIGPIPE.
python3 - "$SOCK" <<'PY' || fail "hang-up client could not connect"
import socket, sys
s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
s.connect(sys.argv[1])
s.sendall(b'{"cmd":"status"}')
s.close()
PY
"$GRC" push --socket "$SOCK" --status --json > /dev/null \
    || fail "daemon stopped serving after a client hung up"

# A silent client: the daemon must close it at the request deadline
# (well before the client's own 5 s patience runs out).
python3 - "$SOCK" <<'PY' || fail "silent client was not dropped at the deadline"
import socket, sys, time
s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
s.connect(sys.argv[1])
s.settimeout(5)
t0 = time.monotonic()
closed = s.recv(1) == b""
sys.exit(0 if closed and time.monotonic() - t0 < 3 else 1)
PY
"$GRC" push --socket "$SOCK" --status --json > /dev/null \
    || fail "daemon stopped serving after a silent client"

# An oversized request: one byte over the cap gets an error reply.
python3 - "$SOCK" <<'PY' || fail "oversized request did not get a structured error"
import json, socket, sys
s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
s.connect(sys.argv[1])
s.sendall(b" " * (1 << 20) + b"{")
s.shutdown(socket.SHUT_WR)
reply = b""
while chunk := s.recv(4096):
    reply += chunk
r = json.loads(reply)
sys.exit(0 if r["ok"] is False and "exceeds" in r["error"] else 1)
PY
"$GRC" push --socket "$SOCK" --status --json > /dev/null \
    || fail "daemon stopped serving after an oversized request"

"$GRC" push --socket "$SOCK" --quit > /dev/null || fail "quit failed"
wait "$SERVE_PID" || fail "daemon exited non-zero"

# 6. The session's decision history, byte for byte.
cmp -s scripts/serve_golden_audit.jsonl "$TMP/audit.jsonl" || {
    diff -u scripts/serve_golden_audit.jsonl "$TMP/audit.jsonl" >&2 || true
    fail "audit log diverged from golden"
}

# 7. serve --nodes 1 vs grc run: byte-identical trace.
"$GRC" serve specs/latency_trend.grd --nodes 1 --hold --seed 42 \
    --socket "$SOCK" --trace "$TMP/serve_trace.json" > /dev/null 2>&1 &
SERVE_PID=$!
i=0
while [ ! -S "$SOCK" ]; do
    i=$((i + 1))
    [ "$i" -gt 100 ] && fail "single-node daemon never opened its socket"
    sleep 0.1
done
"$GRC" push --socket "$SOCK" --advance 40 > /dev/null || fail "advance failed"
"$GRC" push --socket "$SOCK" --quit > /dev/null || fail "quit failed"
wait "$SERVE_PID" || fail "single-node daemon exited non-zero"
"$GRC" run specs/latency_trend.grd --seed 42 --until 2 \
    --trace "$TMP/run_trace.json" > /dev/null || fail "grc run failed"
cmp -s "$TMP/serve_trace.json" "$TMP/run_trace.json" \
    || fail "serve --nodes 1 trace diverged from grc run"

echo "serve-smoke: OK (push/promote, reject, auto-rollback, hang-up, silent and oversized clients, golden audit log, run-identical trace)"
