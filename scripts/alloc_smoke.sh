#!/bin/sh
# Zero-allocation smoke (docs/PERFORMANCE.md): rebuild the test runner
# under the release profile, the build perfbench measures, and run the
# tests that assert a hot path allocates no minor words: periodic sim
# dispatch (timers spread over a period, and 50 timers aligned on one
# instant, so they share a run), watched feature-store saves,
# per-check account updates, trace-sink emits on a grown sink, Rng
# draws, LinnOS decisions and the decisions of the other learned
# policies; that feature-store
# handle reads allocate only their result, at one member and merged
# over 64 shards; that a healthy firing of a 128-member FUNCTION
# trigger group stays within half a minor word per member check; and
# that an MLP training epoch allocates no more at
# 256 samples per batch than at 8 (one boxed loss per batch), on a net
# whose widths are multiples of four and on one whose widths leave the
# four-lane kernel a remainder in every layer. Tests
# are looked up by name, so the smoke does not depend on their
# position in the suite.
set -eu

dune build --profile release ./test/test_main.exe
exe=./_build/default/test/test_main.exe

run() {
  group=$1
  name=$2
  index=$($exe list | awk -v g="$group" -v n="$name" '$1 == g && index($0, n) { print $2; exit }')
  if [ -z "$index" ]; then
    echo "alloc-smoke: no test \"$name\" in $group" >&2
    exit 1
  fi
  $exe test -c "^$group\$" "$index"
}

run sim.engine "periodic dispatch allocates nothing"
run runtime.store.ingest "save allocates nothing"
run runtime.store "handle reads allocate only their result"
run trace.metrics "account updates allocate nothing"
run runtime.engine "group fire within half a word/member"
run trace.sink "sink emit allocates nothing"
run util.rng "rng draw allocates nothing"
run policy.linnos "linnos decision allocates nothing"
run policy.decisions "decisions match forward, allocate 0"
run nn.mlp "training allocates nothing per sample"
echo "alloc-smoke: OK (periodic sim dispatch, spread and aligned, watched store saves, account updates, sink emits, Rng draws, LinnOS and the other learned-policy decisions allocate no minor words, store handle reads only their result, a 128-member trigger group at most half a word per member check, an MLP training epoch no more words as its samples grow, release profile)"
