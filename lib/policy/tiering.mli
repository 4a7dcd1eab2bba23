(** Learned tiered-memory placement (Kleio/IDT-style).

    An MLP predicts, from a slow-tier page's access features (access
    count, time since previous access, fast-tier occupancy), whether
    the page will be reused soon enough to be worth promoting. The
    model is trained on an access trace; the paper's cited failure
    mode — "a learning-based data placement engine may perform poorly
    if the workload ... has random access pattern" — reproduces here
    when the live workload shifts from the zipfian training regime to
    scans, which is what the P1 drift guardrail catches and the A3
    RETRAIN action repairs. *)

type t

val train :
  rng:Gr_util.Rng.t ->
  trace:int array ->
  ?mean_gap_ms:float ->
  ?epochs:int ->
  unit ->
  t
(** [train ~rng ~trace ()] builds the model from a page-access
    sequence: a training example is (features at access i, reused
    within 64 subsequent accesses?). [mean_gap_ms]
    scales access-index distance to simulated milliseconds (the
    offline proxy for the online gap feature; default 0.05ms). *)

val policy : t -> Gr_kernel.Mm.policy
(** Promotes iff the predicted reuse probability is >= 0.5. *)

val predict_promote : t -> float array -> bool
val scorer : t -> Gr_nn.Scorer.t

val score : t -> float array -> float
(** The scorer's output on the log-compressed features
    ({!Gr_nn.Scorer.score}, which scales them). *)

val retrain : t -> trace:int array -> unit
(** Refits on a fresh trace (the A3 action gives it the recent one). *)

val retrain_count : t -> int
val training_features : t -> float array array
(** Reference feature distribution for the P1 drift guardrail. *)
