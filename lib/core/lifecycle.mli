(** Versioned spec lifecycle: gated, canaried rollout for a live
    deployment — the state machine behind [grc serve].

    A spec stops being process configuration (compiled once at boot)
    and becomes a versioned object moving through a lifecycle:

    {v
    push --admit--> staged --barrier--> canarying --N clean--> active
           \                               \
            reject                          rollback
    v}

    {2 The pipeline}

    - {b Push} ({!push}): any source text, from anyone, at any time.
      Stamped with a fresh version id and a content digest
      ({!Gr_compiler.Compile.digest}).
    - {b Admission}: the static-analysis audit ({!Gr_analysis.Audit.admit})
      is the policy decision point — lint, action-machine model
      checking, fleet race analysis. Errors {e and} warnings reject
      (the [grc lint --strict] contract); the caller gets structured
      {!Gr_analysis.Diagnostic.t}s to send back to whoever pushed.
    - {b Canary}: at the next epoch barrier the admitted version is
      installed {e alongside} the active one and its policies are
      canaried onto a node subset ({!Fleet.set_canary}); the rest of
      the fleet keeps running the old version.
    - {b Verdict}: at each subsequent barrier the canary's own
      monitor stats are judged against guardrails (oscillation
      alerts, action fire rate). [canary_barriers] consecutive clean
      verdicts promote; one bad verdict rolls back.
    - {b Promote / rollback}: promotion uninstalls the old version
      {e after} the new one is already running (install-before-
      uninstall handoff: streaming-aggregate demand refcounts shared
      between versions never hit zero, so window state survives the
      swap). Rollback uninstalls only the canary's handles — the old
      version never stopped, so restoration is bit-identical by
      construction.

    Decisions happen only at epoch barriers — registered
    automatically via {!Fleet.add_barrier_hook} for fleet targets,
    or driven by {!Gr_sim.Engine.run_chunked} (or manually via
    {!barrier}) for single-deployment targets; {!advance} drives
    either. At a barrier node domains are parked and the control
    engine is quiescent, so installs never race checks.

    Concurrent pushes are serialized: while a version is staged or
    canarying, further pushes are rejected with the in-flight
    version named in the reason.

    Every transition emits a [cat:"audit"] trace event into the
    audit sink (e.g. {!Gr_trace.Audit_log.append}), chained by
    span/parent so {!Gr_trace.Provenance} — and therefore
    [grc explain] — can replay the decision:
    [spec.push <- spec.admit <- rollout.canary <- rollout.verdict
    <- rollout.promote | rollout.rollback]. *)

type target = Deployment of Deployment.t | Fleet of Fleet.t

type config = {
  canary_nodes : int;  (** nodes the canary targets (clamped to n-1); default 1 *)
  canary_barriers : int;  (** consecutive clean verdicts to promote; default 3 *)
  max_fire_rate : float;  (** guardrail: canary action firings per second; default 5. *)
  admission : Gr_analysis.Audit.config;
}

val default_config : config

type status = Staged | Canarying | Active | Superseded | Rolled_back | Rejected

val status_name : status -> string

type version = {
  id : int;
  who : string;
  digest : string;  (** {!Gr_compiler.Compile.digest} of [source] *)
  source : string;
  pushed_at : Gr_util.Time_ns.t;
  mutable status : status;
  mutable handles : Gr_runtime.Engine.handle list;
      (** installed monitors; [[]] once off the engine *)
  mutable admit_span : int;  (** audit-chain anchor for rollout events *)
}

type rollout = {
  v : version;
  monitors : Gr_compiler.Monitor.t list;
  canary_ids : int list;  (** node subset; [[]] = whole target (single node) *)
  policies : string list;  (** policies the version acts on *)
  mutable started : Gr_util.Time_ns.t;
  mutable canary_span : int;
  mutable last_verdict_span : int;
  mutable clean_barriers : int;
  mutable fires_seen : int;
}

type phase =
  | Steady
  | Pending of rollout  (** admitted, installs at the next barrier *)
  | Rolling of rollout  (** canarying, judged at each barrier *)

type decision =
  | Admitted of { version : int }
  | Rejected of {
      version : int;
      reason : string;
      diagnostics : Gr_analysis.Diagnostic.t list;
    }

type t

val create :
  ?config:config -> ?audit:(Gr_trace.Event.t -> unit) -> target -> t
(** [audit] receives every control-plane decision event (default:
    dropped). For a [Fleet] target the barrier hook is registered
    here; single-deployment callers drive {!barrier} themselves
    (normally via {!advance}, or {!Gr_sim.Engine.run_chunked}'s
    [at_barrier]). *)

val boot : t -> who:string -> string -> (Gr_runtime.Engine.handle list, Deployment.error) result
(** Install version 1 directly, no canary window — there is nothing
    to fall back to yet. Admission gates {e pushes}; the boot spec is
    the operator's own file, vetted like any [grc run] spec. *)

val push : t -> who:string -> string -> decision
(** Admission-check [source] now; on admit, stage it for install at
    the next barrier. Rejected when another rollout is in flight. *)

val barrier : t -> Gr_util.Time_ns.t -> unit
(** The promotion decision point. Installs staged versions, judges
    canarying ones. Fleet targets call this automatically from their
    epoch barrier; exposed for single-deployment targets and tests. *)

val advance : t -> epochs:int -> unit
(** Advance the target by [epochs] epoch barriers, deciding at each,
    in one drive: {!Fleet.run_until} [epochs] {!Fleet.epoch}s ahead
    for a fleet (one domain pool for the whole drive),
    {!Gr_sim.Engine.run_chunked} over {!Fleet.default_epoch} with
    {!barrier} as [at_barrier] for a single deployment. *)

(** {2 The target} *)

val now : t -> Gr_util.Time_ns.t
(** The target's clock: the deployment's kernel, or the fleet clock. *)

val engine : t -> Gr_runtime.Engine.t
(** The engine versions install into: the deployment's, or the fleet's
    control engine. *)

val control : t -> Deployment.t
(** The deployment whose tracer holds the trace: the deployment
    itself, or the fleet's control deployment. *)

val tracers : t -> Gr_trace.Tracer.t list
(** Every tracer of the target, {!control}'s first
    (see {!Fleet.tracers}). *)

(** {2 Introspection} *)

val active : t -> version option
val phase : t -> phase
val phase_name : t -> string
val history : t -> version list
(** All versions ever pushed, oldest first. *)

val find_version : t -> int -> version option
val version_count : t -> int
val promotions : t -> int
val rollbacks : t -> int
val barriers_seen : t -> int
val pp_status : Format.formatter -> t -> unit
