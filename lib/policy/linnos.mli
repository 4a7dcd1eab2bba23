(** LinnOS-style learned I/O latency classifier.

    A small MLP (paper: "a light neural network") predicts whether a
    read issued to a device will be slow, from the device's queue
    depths and its recent service latencies. The block layer consults
    it through {!policy} and revokes predicted-slow I/Os to a replica.

    Training is offline calibration: the model probes the devices'
    latency processes {e as configured right now} and fits to that
    regime. When a device's regime later shifts (aging, heavier GC),
    the model is stale — precisely the failure Figure 2's guardrail
    catches. {!retrain} recalibrates against the current regime and is
    what the A3 RETRAIN action invokes.

    The [enabled] flag implements the paper's Listing 2 action
    [SAVE(ml_enabled, false)]: a disabled model never revokes, which
    is behaviourally the never-revoke fallback without a slot swap. *)

type t

val train :
  rng:Gr_util.Rng.t ->
  devices:Gr_kernel.Ssd.t array ->
  ?samples_per_device:int ->
  ?epochs:int ->
  unit ->
  t
(** Calibrates against the devices' current profiles. The features
    and the slow label are the block layer's:
    {!Gr_kernel.Blk.feature_history} recent latencies, slow above
    {!Gr_kernel.Blk.slow_threshold_us}. *)

val copy : t -> devices:Gr_kernel.Ssd.t array -> t
(** A deep copy bound to [devices], which later {!retrain}s and
    {!holdout_accuracy} probe: own MLP weights and inference buffers,
    own scaled-input buffer, own RNG in the same state, same scaler
    and calibration features (neither is ever mutated), same [enabled]
    flag and retrain count. A copy of a freshly trained model behaves
    as that model would on devices with the same profiles, so a model
    trained once can stand in for training anew on a second,
    identically seeded rig; the copy and the original may then be used
    side by side, each by its own domain. *)

module Templates : sig
  type model := t

  type t
  (** Trained models, each kept under its exact input: the caller rng's
      next output (a bijection of its splitmix64 state) and the devices'
      profiles. *)

  val create : unit -> t

  val train : t -> rng:Gr_util.Rng.t -> devices:Gr_kernel.Ssd.t array -> model
  (** As [train ~rng ~devices ()]; a repeated input gets a {!copy} of
      the kept model. *)
end

val policy : t -> Gr_kernel.Blk.policy
(** Revoke iff [enabled] and the model predicts slow. *)

val predict_slow : t -> float array -> bool
val predict_score : t -> float array -> float
(** Raw sigmoid output in [0,1], through {!Gr_nn.Scorer.score_of}:
    a {!predict_slow} decision allocates nothing under the release
    profile, and one model must not decide in two domains at once. *)

val set_enabled : t -> bool -> unit
val enabled : t -> bool

val retrain : t -> unit
(** Offline recalibration against the devices' current profiles; the
    model is swapped in atomically afterwards. *)

val retrain_count : t -> int

val holdout_accuracy : t -> float
(** Accuracy on a freshly drawn holdout set from the current device
    regime; used by tests and by the P4 quality probes. *)

val inference_flops : t -> int
val training_features : t -> float array array
(** The calibration feature matrix (post-split, pre-normalisation) —
    the reference distribution for the P1 drift guardrail. *)
