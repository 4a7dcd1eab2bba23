(** The guardrail runtime engine: installs compiled monitors against a
    simulated kernel, drives their triggers, evaluates rules and
    executes corrective actions.

    Semantics:
    - A monitor {e checks} its rule whenever any of its triggers
      fires. The property is violated when the rule evaluates falsy.
    - On violation, the monitor's actions run in order, subject to a
      per-monitor cooldown (no re-firing within [cooldown] of the
      previous firing). Checks themselves are never suppressed.
    - RETRAIN is asynchronous (the paper envisions offline training):
      the policy's retrain callback runs after [retrain_delay] of
      simulated time, and retrains of the same policy are rate
      limited to one per [retrain_min_interval] — the paper's defence
      against malicious processes forcing constant retraining.
    - SAVE writes go through the shared feature store and can wake
      ON_CHANGE monitors. Cascades are bounded by [max_cascade_depth];
      deeper cascades are dropped and counted, and each monitor's
      violated/healthy transitions feed an oscillation detector
      ([oscillation_flips] transitions within [oscillation_window]
      raise an alert) — the feedback-loop failure mode of §6.
    - Every rule evaluation charges its estimated cost to the
      monitor's overhead account ({!Stats}); nothing else in the
      simulated kernel slows down, so overhead is an observable, not
      a perturbation. *)

type config = {
  cooldown : Gr_util.Time_ns.t;  (** default 0: act on every violation *)
  retrain_delay : Gr_util.Time_ns.t;  (** default 50ms *)
  retrain_min_interval : Gr_util.Time_ns.t;  (** default 1s *)
  oscillation_window : Gr_util.Time_ns.t;  (** default 10s *)
  oscillation_flips : int;  (** default 6 *)
  max_cascade_depth : int;  (** default 8 *)
  auto_damp : bool;
      (** default false. When set, each oscillation alert doubles the
          flapping monitor's action cooldown (starting from 100ms if
          it was zero) — automatic negative feedback on guardrail
          feedback loops (§6). Detection and REPORTs continue; only
          corrective actions are slowed. *)
}

val default_config : config

type t

val create :
  kernel:Gr_kernel.Kernel.t ->
  store:Feature_store.t ->
  ?config:config ->
  ?tracer:Gr_trace.Tracer.t ->
  ?engine:Vm.tier ->
  unit ->
  t
(** Without [?tracer], the engine creates a private one (trace events
    disabled). Either way the per-monitor metrics registry records
    every check and the REPORT channel — the bounded ring-buffer sink
    behind {!violations} — is always live.

    [?engine] picks the default execution tier monitors are
    specialized onto at install ({!Vm.tier}; default [Jit]). Both
    tiers are bit-identical in results, accounting, store counters
    and trace events, so the choice is a pure performance knob. *)

val tracer : t -> Gr_trace.Tracer.t
val metrics : t -> Gr_trace.Metrics.t
(** Per-monitor telemetry. Each install registers its own account
    there, which {!Stats} reads too; {!uninstall} folds it into the
    name's retired total. *)

type handle

val install :
  ?engine:Vm.tier -> ?version:int -> t -> Gr_compiler.Monitor.t -> (handle, string list) result
(** Verifies the monitor (installation is the trust boundary, exactly
    as for eBPF program load), specializes its rule and SAVE programs
    onto the requested tier (default: the engine's), and arms its
    triggers. [version] stamps the monitor with the spec version it
    came from when the install goes through the versioned lifecycle
    ({!Gr_core.Lifecycle} / grc serve); it changes no runtime
    behavior and no trace bytes. *)

val tier : handle -> Vm.tier
(** The tier the monitor's rule executes on: the one requested at
    install. The JIT compiles every program, including rules that read
    cross-shard keys. *)

val default_tier : t -> Vm.tier

val uninstall : t -> handle -> unit
(** Cancels timers, unsubscribes hooks, releases the monitor's
    streaming-aggregate demand refcounts ({e exactly} once — shapes
    shared with still-installed monitors keep streaming), and drops
    the monitor from the engine's table so a long-running serving
    engine doesn't accumulate dead records across push/rollback
    cycles. Idempotent; the handle stays valid for {!Stats.get}. *)

val monitor_name : handle -> string

val version : handle -> int option
(** The spec version stamped at install, if the monitor came in
    through the versioned lifecycle. *)

val installed : handle -> bool

val installed_count : t -> int
(** Monitors currently in the engine's table (uninstalls shrink it). *)

val set_deprioritize_handler : t -> (cls:string -> weight:int -> unit) -> unit
val set_kill_handler : t -> (cls:string -> unit) -> unit
(** Wire DEPRIORITIZE/KILL to the scheduler (or any resource
    manager). Unset handlers log a warning when invoked. *)

val check_now : t -> handle -> bool
(** Forces one rule evaluation (outside any trigger); [true] if the
    property held. Used by tests and the CLI. *)

val dispatch_on_change : t -> string -> unit
(** Run the ON_CHANGE triggers indexed under this exact key, as if the
    engine's own store had saved it. The fleet layer uses this to
    replay global-tier saves into every node engine — a node's
    ON_CHANGE(GLOBAL(key)) fires no matter which node wrote the key.
    Saves through the engine's store dispatch automatically. *)

module Stats : sig
  type s = {
    checks : int;
    violations : int;  (** checks whose rule was falsy *)
    action_firings : int;  (** violation instances whose actions ran *)
    retrains_requested : int;
    retrains_suppressed : int;  (** dropped by the rate limiter *)
    overhead_ns : float;  (** accumulated estimated check cost *)
    oscillation_alerts : int;
    cascade_drops : int;
    effective_cooldown : Gr_util.Time_ns.t;
        (** the monitor's current cooldown, after any auto-damping *)
  }

  val get : t -> handle -> s
  val total_overhead_ns : t -> float
  val total_checks : t -> int
end

type violation_record = {
  monitor : string;
  at : Gr_util.Time_ns.t;
  message : string;  (** REPORT message, or ["<violation>"] if the
                         monitor has no REPORT action *)
  snapshot : (string * float) list;  (** keys named by REPORT *)
}

val violations : t -> violation_record list
(** Chronological log (REPORT actions and implicit records). A view
    over the tracer's report sink: REPORTs are structured trace
    events on a bounded ring buffer (oldest-first, newest dropped and
    counted on overflow — the eBPF-ringbuf discipline). *)

val oscillating_monitors : t -> string list
(** Monitors whose flip rate exceeded the threshold at least once. *)

val pp_report : Format.formatter -> t -> unit
(** Operations report: one row per installed monitor (checks,
    violations, firings, retrains, overhead, state), followed by the
    most recent violations. What an operator would read after an
    incident. *)
