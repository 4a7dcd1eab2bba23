.PHONY: all build test fmt fmt-check lint bench bench-smoke soak-smoke fleet-smoke par-smoke jit-smoke tsan-smoke obs-smoke serve-smoke alloc-smoke examples-run ci

all: build

build:
	dune build

test:
	dune runtest

# Reformat dune files in place.
fmt:
	dune build @fmt --auto-promote

# Fail on unformatted dune files or lint findings in OCaml sources.
fmt-check:
	dune build @fmt @fmt-check

# Static analysis over the shipped specs (must be clean) and the
# specs/bad negative corpus (each file must produce its pinned
# diagnostic family and exit code). See docs/LINT.md.
lint: build
	sh scripts/lint_corpus.sh

bench:
	dune exec bench/main.exe

# Tiny-N benchmark pass in seconds: the aggregation micro-bench, the
# monitor-count sweep, the execution tiers (bit-identity guard and
# 273-instruction pin), the observability self-overhead calibration,
# the TIMER interval sweep (exits non-zero unless its §4.1 verdict
# holds) and one small LinnOS training with its decision cost, each
# as one --json line that must parse as JSON; plus the small sizes of
# the grc verify pass-cost ablation.
bench-smoke:
	out=$$(dune exec bench/main.exe -- agg scale tiers obs overhead nn --json --smoke) && \
	  printf '%s\n' "$$out" | python3 -c 'import json,sys; lines=[l for l in sys.stdin if l.strip()]; assert len(lines) == 6, len(lines); [json.loads(l) for l in lines]'
	dune exec bench/main.exe -- verify --smoke

# Bounded chaos soak: every scenario x seeds 1-7 with generated fault
# plans, invariants checked after every sim event (docs/TESTING.md).
# Failures print a `grc soak --plan ...` repro line and exit non-zero;
# stdout must byte-diff against scripts/soak_golden_smoke.txt, which
# pins every run's event and fault counts across revisions.
soak-smoke:
	@out=$$(mktemp); dune exec bin/grc.exe -- soak --smoke > $$out && \
	  diff -u scripts/soak_golden_smoke.txt $$out; rc=$$?; rm -f $$out; exit $$rc

# 4-node fleet smoke (docs/FLEET.md): the merged-aggregation
# experiment (exits non-zero unless the fleet QUANTILE guardrail
# matches the naive concat-and-scan oracle at every checkpoint and
# the canaried REPLACE stays on its subset), plus a short chaos soak
# of the fleet scenario with faults confined to node 0.
fleet-smoke:
	dune exec bench/main.exe -- fleet
	dune exec bin/grc.exe -- soak --scenario fleet --nodes 4 --runs 3 --duration 0.5

# Fleet-runtime smoke (docs/PARALLEL.md): `--domains 1`, `2` and `3`
# must write byte-identical traces and stdout, and the fleet chaos
# soak must hold its invariants with node event streams on two domains.
par-smoke: build
	sh scripts/par_smoke.sh

# Tiered-execution smoke (docs/PERFORMANCE.md): the fig. 2 guardrail
# and a 3-node fleet spec run under both execution tiers (--engine
# tree/jit) must produce byte-identical traces and stdout — the
# tier-invariance contract checked end to end through the CLI in
# seconds, merged-key reads included.
jit-smoke: build
	sh scripts/jit_smoke.sh

# ThreadSanitizer smoke (docs/PARALLEL.md): on a TSan-enabled
# compiler — OCaml >= 5.2 configured with --enable-tsan, which makes
# `ocamlopt -config` report `tsan: true` — rebuild under the tsan
# dune profile and run the parallel-runtime suites (domain pool,
# epoch barriers, deterministic fleet RNG) with the instrumented
# runtime watching for data races. On any other toolchain (including
# the pinned 5.1.1 build image) it prints a skip line and succeeds,
# so `make ci` stays portable.
tsan-smoke:
	@if ocamlopt -config 2>/dev/null | grep -q '^tsan:.*true'; then \
	  echo "tsan-smoke: ThreadSanitizer-enabled compiler detected; running par suites under --profile tsan"; \
	  dune exec --profile tsan test/test_main.exe -- test par -e; \
	else \
	  echo "tsan-smoke: skipped (ocamlopt -config reports no tsan support; needs OCaml >= 5.2 built with --enable-tsan)"; \
	fi

# Observability smoke (docs/OBSERVABILITY.md): traced quickstart whose
# t=3s REPORT `grc explain` must walk back to its sim dispatch, plus
# golden-diffed OpenMetrics expositions from `grc run --metrics`
# (single-node and 2-node fleet; host-time lines filtered), and the
# quickstart and 3-node fleet traces checked against committed
# SHA-256 digests (pins sim dispatch order across revisions).
obs-smoke: build
	sh scripts/obs_smoke.sh

# Live control-plane smoke (docs/SERVE.md): a scripted `grc serve`
# session over the unix socket — good push canaries and promotes, a
# GRL003 push bounces with diagnostics, a guardrail-violating push
# auto-rolls-back, the session's audit log byte-diffs against its
# golden, and a --nodes 1 serve trace byte-diffs against `grc run`.
serve-smoke: build
	sh scripts/serve_smoke.sh

# Zero-allocation smoke (docs/PERFORMANCE.md): under the release
# profile perfbench builds, periodic sim dispatch (spread timers, and
# 50 timers aligned on one instant), feature-store
# saves (by handle and by key, below and at ring capacity),
# per-check metrics account updates, trace-sink emits on a grown sink,
# Rng draws, LinnOS decisions and the other learned policies'
# decisions must allocate no minor words, feature-store handle reads
# only their result, a 128-member trigger group at most half a word
# per member check, and an MLP training epoch no more words as its
# samples grow. Runs last in `ci`: it
# leaves _build in the release profile, and the next plain `dune
# build` rebuilds dev.
alloc-smoke:
	sh scripts/alloc_smoke.sh

# Compile and run every file in examples/ end to end.
examples-run:
	dune build @examples-run

ci: fmt-check
	dune build
	dune runtest
	$(MAKE) lint
	$(MAKE) bench-smoke
	$(MAKE) soak-smoke
	$(MAKE) fleet-smoke
	$(MAKE) par-smoke
	$(MAKE) jit-smoke
	$(MAKE) tsan-smoke
	$(MAKE) obs-smoke
	$(MAKE) serve-smoke
	$(MAKE) examples-run
	$(MAKE) alloc-smoke
