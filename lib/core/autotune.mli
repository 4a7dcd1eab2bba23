(** Automatic threshold calibration and tightening (§3.3).

    "OS practitioners may find it better to deploy guardrails with
    relaxed properties and automatically tighten the properties based
    on system behavior."

    [deploy] watches a feature-store key during a warmup window,
    computes thresholds from the observed distribution (a quantile
    stretched by a slack factor), instantiates the guardrail from a
    caller-supplied source template, installs it, and then keeps
    re-calibrating: every [tighten_every], if the recent distribution
    supports a tighter bound, the installed monitor is atomically
    replaced (uninstall + install — the §6 "update guardrails at
    runtime without requiring a kernel reboot" mechanic). Thresholds
    only ever tighten; a misbehaving phase cannot loosen them. *)

type t

val deploy :
  Deployment.t ->
  key:string ->
  ?quantile:float ->
  ?slack:float ->
  ?warmup:Gr_util.Time_ns.t ->
  ?tighten_every:Gr_util.Time_ns.t ->
  make_source:(hi:float -> string) ->
  unit ->
  t
(** [deploy d ~key ~make_source ()] starts calibration. The upper
    bound is [slack * quantile(observed key samples)]; defaults:
    [quantile] 0.99, [slack] 2.0, [warmup] 1s, [tighten_every] 2s.
    [make_source ~hi] must return guardrail source parameterised by
    the bound (the autotuner re-invokes it at each tightening). The
    guardrail is installed when the warmup expires (if any samples
    arrived; otherwise calibration retries each [tighten_every]).
    Each calibration window is registered as a QUANTILE demand on
    [key] (the warmup's released after its one read), so the store
    retains that window's samples and the read streams. *)

val current_bound : t -> float option
(** [None] until the first calibration completes. *)

val tightenings : t -> int
(** Times the bound was tightened after initial installation. *)

val handle : t -> Gr_runtime.Engine.handle option
(** The live monitor handle, once installed. *)
