(** A fleet deployment: N node kernels advancing on one simulated
    clock, plus a fleet-level control deployment that owns the global
    feature-store tier and runs fleet-wide guardrails.

    {[
      let fleet = Fleet.create ~nodes:4 ~seed:7 () in
      Array.iter build_devices (Fleet.nodes fleet);
      Fleet.install_source_exn fleet
        {|GUARDRAIL fleet_tail
          ON TIMER(100ms)
          CHECK QUANTILE(io_lat_us, 10s, 0.99) < 500.0
          ON VIOLATION REPLACE latency_predictor|};
      Fleet.run_until fleet (Time_ns.sec 10)
    ]}

    {2 Scoping}

    Every node's store is a shard; the control deployment's store is
    the global tier. A plain key read by a {e fleet} monitor sees the
    merged view of all shards (aggregates fold every shard's streaming
    state, see {!Gr_runtime.Feature_store.link}); the same key read by a {e
    node} monitor sees only that node's shard. [GLOBAL(key)] resolves
    to the global tier from everywhere. An ON_CHANGE(GLOBAL(key))
    monitor, on the control engine or on a node engine, watches the
    tier's entry of the key ({!Gr_runtime.Feature_store.watch}), so a
    global save wakes every one of them, in the order they were
    installed.

    {2 Fleet actions}

    Policies live in node kernels. Installing a fleet monitor
    registers proxies on the control kernel: REPLACE broadcasts to
    every node or, when {!set_canary} was called for the policy, only
    to the canary subset; RESTORE always broadcasts; RETRAIN runs
    once on the lowest-id node owning the policy and pushes the
    refreshed model to the other owners (trace events
    [fleet.replace]/[fleet.restore]/[fleet.retrain]/[fleet.model_push],
    category ["fleet"]). FUNCTION triggers of fleet monitors are
    forwarded from every node's hook table with a ["node"] argument
    tagging the origin.

    {2 Execution}

    Every node kernel owns its engine and the fleet advances in
    lock-step sim-time epochs under the epoch-barrier protocol of
    docs/PARALLEL.md: nodes drain only node-local events mid-epoch,
    cross-node effects (GLOBAL saves, forwarded FUNCTION hook
    firings) are buffered as intents and replayed by the control
    deployment at each barrier in (timestamp, node id, node-local
    order) order, and REPLACE/RESTORE/RETRAIN broadcasts run in the
    control phase while node phases are parked. [~domains:K] only
    picks how many OCaml domains run the node phases (one domain runs
    them inline): the same [(seed, nodes, epoch)] gives a
    byte-identical trace for every K; only host wall-clock changes. *)

type t

val create :
  nodes:int ->
  seed:int ->
  ?config:Gr_runtime.Engine.config ->
  ?store_capacity:int ->
  ?tracing:bool ->
  ?domains:int ->
  ?epoch:Gr_util.Time_ns.t ->
  ?engine:Gr_runtime.Vm.tier ->
  unit ->
  t
(** Builds a control kernel seeded with [seed] and [nodes] node
    deployments (ids [0..nodes-1], seeds [seed + id + 1]) wired as
    store shards of the control store. [nodes] must be positive;
    [nodes:1] is a fleet-of-one whose node behaves exactly like a
    standalone {!Deployment}.

    [domains] (default 1) is the number of OCaml domains node phases
    run on; it is clamped to [1..nodes] (more domains than nodes buys
    nothing) and never changes the result. [epoch] (default 50ms) is
    the barrier interval at every domain count; it must be positive.
    Shorter epochs tighten cross-node latency (a node sees a peer's
    GLOBAL save at the next barrier), longer epochs amortize barrier
    cost. @raise Invalid_argument on bad [nodes] or [epoch].

    [engine] is the default execution tier for every member engine
    and the control engine (see {!Deployment.create}). Control
    monitors run on the JIT too: their cross-shard merged reads go
    through store handles that pin every member's entry and fold
    them on each read. *)

val sim : t -> Gr_sim.Engine.t
(** The fleet's virtual clock: the control deployment's own engine.
    Events scheduled here run in the barrier's control phase. *)

val domains : t -> int
(** The effective domain count, after clamping to [1..nodes]. *)

val epoch : t -> Gr_util.Time_ns.t
(** The epoch-barrier interval runs advance by. *)

val default_epoch : Gr_util.Time_ns.t
(** The default epoch interval (50ms). Single-deployment spec-serving
    paths reuse it so [grc serve --nodes 1] barriers land where a
    fleet's would. *)

val control : t -> Deployment.t
(** The fleet-level deployment: its store is the global tier, its
    engine runs the fleet-wide monitors, its tracer owns the sim
    dispatch channel. *)

val store : t -> Gr_runtime.Feature_store.t
(** The global store tier ([= Deployment.store (control t)]). Plain
    keys read through it present the merged all-shards view. *)

val engine : t -> Gr_runtime.Engine.t
val tracer : t -> Gr_trace.Tracer.t

val nodes : t -> Deployment.t array
(** Copy of the member array, index = node id. *)

val tracers : t -> Gr_trace.Tracer.t list
(** Every tracer in the fleet: the control deployment's first, then
    each node's in id order — the set a fleet-wide OpenMetrics
    exposition reads. *)

val node : t -> int -> Deployment.t
(** Raises [Invalid_argument] for an unknown id. *)

val node_count : t -> int

(** {1 Fleet-wide guardrails} *)

val install_source : t -> string -> (Gr_runtime.Engine.handle list, Deployment.error) result
(** Compiles the source and installs every monitor into the control
    engine, after wiring FUNCTION-trigger forwarding from all nodes
    and REPLACE/RESTORE/RETRAIN proxies for every policy the monitors
    act on. On error nothing from this source stays installed. *)

val install_source_exn : t -> string -> Gr_runtime.Engine.handle list

val install_monitors :
  ?version:int ->
  t ->
  Gr_compiler.Monitor.t list ->
  (Gr_runtime.Engine.handle list, Deployment.error) result
(** Wires and installs an already-compiled monitor set atomically on
    the control engine, stamped with [version] when given (the
    versioned lifecycle's install path — see
    {!Gr_runtime.Engine.install}). On error nothing from this set
    stays installed. *)

val uninstall : t -> Gr_runtime.Engine.handle -> unit
(** Uninstall a fleet-wide monitor from the control engine (demand
    refcounts released exactly once; policy proxies and hook
    forwarders stay, inert, for future installs). *)

val violations : t -> Gr_runtime.Engine.violation_record list
(** The control engine's violation log (fleet-wide monitors only;
    per-node logs live on each node's engine). *)

(** {1 Canarying} *)

val set_canary : t -> policy:string -> int list -> unit
(** Restrict the named policy's fleet REPLACE to these node ids.
    Raises [Invalid_argument] on an unknown id. *)

val clear_canary : t -> policy:string -> unit
(** Subsequent REPLACEs broadcast again. *)

val canary : t -> policy:string -> int list option

(** {1 Global store and clock} *)

val save_global : t -> string -> float -> unit
(** [save_global t key v] writes [GLOBAL(key)] — visible to every
    member and waking the ON_CHANGE(GLOBAL(key)) monitors of the
    control engine and every node engine, in installation order. *)

val load_global : t -> string -> float

val run_until : t -> Gr_util.Time_ns.t -> unit
(** Advances the fleet clock; all nodes and the control engine make
    progress in one deterministic event order. With more than one
    domain this spawns the domain pool for the duration of the call.
    [= run_epochs] without a callback. *)

val run_epochs : ?on_barrier:(Gr_util.Time_ns.t -> unit) -> t -> Gr_util.Time_ns.t -> unit
(** Like {!run_until}, with [on_barrier] called on the calling domain
    after every epoch's control phase (the last boundary is exactly
    [limit]) — the fault-injection soak's window for checking
    cross-shard invariants while node phases are parked. *)

val add_barrier_hook : t -> (Gr_util.Time_ns.t -> unit) -> unit
(** Register a persistent callback invoked at every epoch boundary of
    every subsequent {!run_until}/{!run_epochs} — before any
    [on_barrier] callback, so invariant checkers observe
    post-decision state. This is the promotion decision point for
    canaried spec rollouts ({!Lifecycle}). *)

val events_fired : t -> int
(** Total sim events dispatched: the sum over the control and node
    engines. *)

(** {1 Fleet action counters} *)

val replaces : t -> int
(** Per-node REPLACE deliveries (a broadcast to 4 nodes counts 4). *)

val restores : t -> int
val retrains : t -> int
(** Global retrain rounds (train-once). *)

val model_pushes : t -> int
(** Models pushed to non-trainer owners after a retrain. *)
