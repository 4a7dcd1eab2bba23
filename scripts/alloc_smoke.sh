#!/bin/sh
# Zero-allocation smoke (docs/PERFORMANCE.md): rebuild the test runner
# under the release profile, the build perfbench measures, and run the
# tests that assert a hot path allocates no minor words: periodic sim
# dispatch, feature-store saves and per-check account updates. Tests are looked up by name, so the
# smoke does not depend on their position in the suite.
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
run trace.metrics "account updates allocate nothing"
echo "alloc-smoke: OK (periodic sim dispatch, store saves and account updates allocate no minor words, release profile)"
