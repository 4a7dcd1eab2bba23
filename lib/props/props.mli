(** The guardrail property library: generators for the paper's P1-P6
    taxonomy (Figure 1, left table).

    Each generator emits guardrail {e source text} — the properties
    are expressed in the same language a kernel developer would
    write, and go through the full parse / typecheck / compile /
    verify pipeline when installed. Where a property needs kernel
    signals that no subsystem publishes by default, the module also
    provides the instrumentation glue.

    Action lists are raw action syntax, e.g.
    [{|REPORT("drift", input_q50)|}; {|RETRAIN("linnos")|}] — the
    generators splice them into the [action] section verbatim. *)

val duration_ns : Gr_util.Time_ns.t -> string
(** Renders a duration as DSL source (plain nanoseconds). *)

module P1_in_distribution : sig
  (** Inputs stay in-distribution: the live windowed quantile of each
      monitored feature must stay inside an envelope computed from
      the training set. *)

  val envelope : float array -> ?quantile:float -> ?slack:float -> unit -> float * float
  (** [(lo, hi)] for the training values: the [quantile]
      (default 0.5) must live within the training [quantile]'s
      position widened by [slack] (default 0.5) times the training
      IQR. *)

  val source :
    name:string ->
    feature_key:string ->
    lo:float ->
    hi:float ->
    ?quantile:float ->
    window:Gr_util.Time_ns.t ->
    check_every:Gr_util.Time_ns.t ->
    actions:string list ->
    unit ->
    string

  val source_mean :
    name:string ->
    feature_key:string ->
    lo:float ->
    hi:float ->
    window:Gr_util.Time_ns.t ->
    check_every:Gr_util.Time_ns.t ->
    actions:string list ->
    unit ->
    string
  (** Variant bounding the windowed {e mean} instead of a quantile —
      the right form for 0/1 event markers such as "this input was
      never seen in training" (novelty fraction). *)

  val instrument_ks :
    Guardrails.Deployment.t ->
    feature_key:string ->
    training:float array ->
    window:Gr_util.Time_ns.t ->
    every:Gr_util.Time_ns.t ->
    out:string ->
    unit
  (** Whole-distribution drift: periodically computes the two-sample
      Kolmogorov-Smirnov statistic between the feature's live window
      and the training sample, saving it under [out] (0 when the
      window is empty). Pair with {!source_ks}. Registers a COUNT
      demand for the window on [feature_key], so the store keeps the
      window's samples (see {!Gr_runtime.Feature_store}'s retention
      contract). *)

  val source_ks :
    name:string ->
    ks_key:string ->
    bound:float ->
    check_every:Gr_util.Time_ns.t ->
    actions:string list ->
    unit ->
    string
  (** Bounds the saved KS statistic; typical bounds are 0.2-0.4 (KS
      is in [0,1], 0 = identical distributions). *)
end

module P2_robustness : sig
  (** Similar inputs yield similar outputs: an empirical sensitivity
      metric (published by a prober such as
      {!Gr_policy.Cc_controller.sensitivity_probe}) stays bounded. *)

  val source :
    name:string ->
    sensitivity_key:string ->
    bound:float ->
    window:Gr_util.Time_ns.t ->
    check_every:Gr_util.Time_ns.t ->
    actions:string list ->
    unit ->
    string

  val instrument_cc :
    Guardrails.Deployment.t ->
    Gr_policy.Cc_controller.t ->
    rng:Gr_util.Rng.t ->
    key:string ->
    every:Gr_util.Time_ns.t ->
    unit
  (** Periodically probes the controller at a reference operating
      point and saves the sensitivity estimate. *)
end

module P3_output_bounds : sig
  (** Outputs are legal: a value published at a hook stays inside
      [lo, hi]. Checked with a FUNCTION trigger so every decision is
      inspected. *)

  val source :
    name:string ->
    hook:string ->
    key:string ->
    lo:float ->
    hi:float ->
    actions:string list ->
    unit ->
    string
end

module P4_decision_quality : sig
  (** The learned policy beats its baseline: the windowed average of
      the policy's quality metric must not fall more than [margin]
      below the shadow baseline's. *)

  val source :
    name:string ->
    policy_key:string ->
    baseline_key:string ->
    margin:float ->
    window:Gr_util.Time_ns.t ->
    check_every:Gr_util.Time_ns.t ->
    actions:string list ->
    unit ->
    string

  val shadow_cache :
    Guardrails.Deployment.t ->
    capacity:int ->
    baseline:Gr_kernel.Cache.policy ->
    hit_key:string ->
    unit
  (** Runs a shadow cache (own hook registry, same capacity) fed by
      every ["cache:access"] of the live cache, saving its hit/miss
      stream under [hit_key] — the baseline leg of the P4 rule. *)

  val shadow_readahead :
    Guardrails.Deployment.t ->
    cache_pages:int ->
    baseline:Gr_kernel.Fs.policy ->
    hit_key:string ->
    unit
  (** Same pattern for the file read path: a shadow page cache under
      the baseline readahead policy replays every ["fs:read"] offset
      and saves its hit/miss stream under [hit_key]. *)
end

module P5_overhead : sig
  (** Inference cost is bounded: the windowed average of per-decision
      inference cost must stay below the budget. *)

  val source :
    name:string ->
    cost_key:string ->
    budget_ns:float ->
    window:Gr_util.Time_ns.t ->
    check_every:Gr_util.Time_ns.t ->
    actions:string list ->
    unit ->
    string

  val wrap_blk_policy :
    Guardrails.Deployment.t ->
    key:string ->
    cost_ns:float ->
    Gr_kernel.Blk.policy ->
    Gr_kernel.Blk.policy
  (** Saves [cost_ns] under [key] on every decide call. *)
end

module P6_fairness : sig
  (** Liveness and fairness: no ready task starves beyond
      [max_wait_ms], and per-class CPU shares keep a Jain index of at
      least [min_jain]. Requires
      {!Guardrails.Deployment.wire_scheduler}. *)

  val source :
    name:string ->
    ?max_wait_key:string ->
    ?jain_key:string ->
    max_wait_ms:float ->
    min_jain:float ->
    check_every:Gr_util.Time_ns.t ->
    actions:string list ->
    unit ->
    string
end
