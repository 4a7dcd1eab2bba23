(** Interpreter for verified monitor programs.

    Arithmetic is total: division by zero yields 0 (the same choice
    eBPF makes), so a verified program cannot trap. Booleans are
    encoded as 0/1; any non-zero value is truthy for [&&]/[||]/[!]
    ({!Gr_compiler.Ir.apply_unop}/{!Gr_compiler.Ir.apply_binop}, the
    operator semantics every executor shares).

    Each run reports the dynamic cost in estimated nanoseconds —
    instruction costs from {!Gr_compiler.Ir.inst_cost_ns}
    plus a per-sample surcharge for window work — which the engine
    accumulates as monitor overhead (the currency of the P5 property
    and the overhead ablation). Aggregates go through
    {!Feature_store.aggregate_result}: a registered demand is charged
    only the samples it expired on this check (O(1) amortized), a
    naive fallback the whole window population. *)

type result = {
  value : float;
  insts_executed : int;
  samples_scanned : int;
  est_cost_ns : float;
}

type out = Gr_trace.Metrics.check_out = { mutable value : float; mutable cost_ns : float }
(** A rule's last value and estimated cost, written in place by the
    engine's executors: a record of floats only keeps both unboxed, so
    a check reports its verdict, and its account takes its cost,
    without allocating. *)

(** {1 Execution tiers}

    The same verified program can execute on two tiers:
    - [Tree]: the reference tree-walking interpreter ({!run});
    - [Jit]: the closure template JIT ({!Jit}), which compiles every
      program, including reads of cross-shard (fleet-merged) keys.

    Both tiers produce bit-identical {!result}s, store counter effects
    and trace events; the cross-tier differential rig in
    test/test_fuzz.ml pins that equivalence. *)

type tier = Tree | Jit

val tier_of_string : string -> tier option
(** Parses ["tree"|"jit"] — the CLI's [--engine] values. *)

val tier_to_string : tier -> string

val all_tiers : tier list
(** [[Tree; Jit]], reference first. *)

val static_cost_ns : Gr_compiler.Ir.program -> float
(** {!Gr_compiler.Ir.static_cost_ns} — fixed at compile time.
    Callers that execute a program repeatedly compute this once and
    pass it to {!run} so the hot path only adds the dynamic
    (sample-scan) part. *)

val run :
  ?static_cost_ns:float ->
  store:Feature_store.t ->
  slots:string array ->
  Gr_compiler.Ir.program ->
  result
(** Precondition: the program passed {!Gr_compiler.Verify.verify}
    against these slots, and [?static_cost_ns], when given, is
    {!static_cost_ns} of this very program (computed per run
    otherwise). *)

val sample_scan_cost_ns : float
(** Per-sample surcharge (ns) every tier charges for window work. *)
