(** Chaos-soak harness: randomized deployments x fault plans, with
    global invariants checked after every sim event.

    Each run builds one of the {!scenario_names} around a seeded
    kernel, arms a generated (or supplied) {!Fault.plan}, then drives
    the sim engine {e one event at a time}, checking cheap invariants
    between events and expensive ones (the streaming-vs-naive
    aggregate oracle) on a stride:

    - the engine never raises — injected hook exceptions are contained
      by the kernel, everything else is a bug;
    - the kernel's contained-exception count equals the number of
      exceptions the injector raised (an unexplained containment is a
      real listener bug);
    - REPLACE/RESTORE bookkeeping matches the policy slot's actual
      fallback state;
    - every registered streaming aggregate agrees with the naive
      full-scan oracle, NaN- and magnitude-aware;
    - trace and report sinks satisfy [emitted = length + dropped];
    - per-monitor stats are sane (violations <= checks, firings <=
      violations, retrain callbacks run <= retrains requested);
    - DEPRIORITIZE observably reweights every live task of its class
      (checked in the action handler itself).

    A failing (seed, plan) shrinks by greedy delta debugging to a
    minimal plan that still fails, and {!repro_command} renders it as
    a [grc soak] command line. Same seed, same plan: bit-identical
    trace event streams — {!run_one} exposes the stream so tests can
    assert that. *)

val scenario_names : string list
(** ["blk"; "sched"; "store"; "fleet"; "serve"]: LinnOS-style block
    stack under I/O load; multi-CPU scheduler with a wild slice
    policy; feature-store aggregation under a synthetic save workload;
    a multi-node fleet whose faults all land on node 0 (its device
    dies, its shard's keys get corrupted, its hooks raise) while the
    invariants assert that the fleet-merged aggregates and the
    surviving nodes' guardrails stay consistent; and the same fleet
    under a lifecycle that pushes canaried rollouts to node 0. *)

type run_result = {
  ok : bool;
  problems : string list;  (** deduplicated invariant failures *)
  events : int;  (** sim events dispatched *)
  faults_injected : int;
  faults_skipped : int;
  checks : int;  (** guardrail rule evaluations across monitors *)
  violations : int;
  trace : Gr_trace.Event.t list;  (** full trace-event stream *)
  slots : (string * bool * int) list;
      (** [(policy, on_fallback, transitions)] for each policy slot
          auto-registered for the extra spec (see {!run_one}), sorted
          by name; transitions counted from after the initial learned
          install. *)
}

val run_one :
  ?extra_source:string ->
  ?nodes:int ->
  ?domains:int ->
  ?engine:Gr_runtime.Vm.tier ->
  scenario:string ->
  seed:int ->
  duration:Gr_util.Time_ns.t ->
  plan:Fault.plan ->
  unit ->
  run_result
(** One deterministic run. [extra_source] installs additional
    guardrails (the [grc soak --spec] path) into the scenario's
    deployment; an install failure is reported as a problem. Each
    policy the extra spec REPLACEs/RESTOREs/RETRAINs that the
    scenario didn't register gets a plain unit slot (fallback
    ["fallback"], learned ["learned"]) registered on the kernel, and
    its end state is reported in [slots] — this is what makes
    [grc verify] counterexample schedules executable end to end.
    [nodes] (default 3) sizes the ["fleet"] and ["serve"] scenarios
    and is ignored by the single-node scenarios. Fleet scenarios run
    on the epoch-barrier runtime (docs/PARALLEL.md) on [domains]
    (default 1) OCaml domains; their invariant checks run at every
    epoch barrier — the only quiescent points — and the injector's
    fault traces land on node 0's tracer channel. The result does not
    depend on [domains]. Single-node scenarios ignore it and check
    after every sim event. [engine]
    selects the monitor execution tier for every deployment the
    scenario builds (default: the JIT tier) — tiers are bit-identical,
    so a soak failure reproduces under any of them unless the tier
    machinery itself is the bug. *)

type failure = {
  scenario : string;
  seed : int;
  duration : Gr_util.Time_ns.t;
  nodes : int;  (** fleet size the failure was found under (default 3) *)
  domains : int;  (** domain count the failure was found under *)
  engine : Gr_runtime.Vm.tier option;  (** tier requested; [None] is the JIT default *)
  spec : string option;  (** path of the extra spec the failing runs installed *)
  plan : Fault.plan;  (** as generated *)
  shrunk : Fault.plan;  (** minimal still-failing subset *)
  problems : string list;
}

type report = {
  runs : int;
  passed : int;
  failures : failure list;
  total_events : int;
  total_faults : int;
}

val agg_close : fn:Gr_dsl.Ast.agg -> m:float -> n:int -> float -> float -> bool
(** [agg_close ~fn ~m ~n a b]: whether two reads of one aggregate
    agree, as the soak's streaming-vs-naive oracle judges them. COUNT,
    MIN, MAX, QUANTILE and DELTA must be equal (or both NaN); the
    running-sum family may differ by the float error a streaming path
    accumulates over [n] samples of magnitude at most [m]. *)

val shrink : still_fails:(Fault.plan -> bool) -> Fault.plan -> Fault.plan
(** Greedy delta debugging: repeatedly drops any single fault whose
    removal preserves failure, to a 1-minimal plan. The predicate is
    a parameter so the shrinker itself is unit-testable. *)

val soak :
  ?log:(string -> unit) ->
  ?extra_spec:string * string ->
  ?nodes:int ->
  ?domains:int ->
  ?engine:Gr_runtime.Vm.tier ->
  scenarios:string list ->
  seeds:int list ->
  duration:Gr_util.Time_ns.t ->
  unit ->
  report
(** Runs every scenario x seed with generated plans, shrinking each
    failure; all runs and shrink re-runs share one
    {!Gr_policy.Linnos.Templates} table. [log] receives one progress
    line per run.
    [extra_spec = (path, source)] installs [source] as {!run_one}'s
    [extra_source] in every run. [nodes], [domains] (default 1) and
    [engine] are forwarded to {!run_one}; they and the spec's [path]
    are recorded in each failure's repro command. *)

val repro_command : failure -> string
(** The [grc soak --scenario .. --seed .. --duration .. --plan '..']
    line that reproduces the shrunk failure; [--nodes], [--domains]
    and [--engine] appear when they differ from their defaults, and
    [--spec PATH] when the runs installed an extra spec. *)

val pp_report : Format.formatter -> report -> unit
