(** Learned cache replacement.

    Predicts each cached key's time-to-reuse from recency/frequency
    features and evicts the key predicted to be reused furthest in
    the future (an approximation of Belady's MIN). Bookkeeping is fed
    by the ["cache:access"] hook, so the policy composes with any
    {!Gr_kernel.Cache.t} without changing the cache.

    Trained on a zipfian trace it comfortably beats LRU and random;
    under a scan-heavy workload its predictions collapse below the
    random baseline — the exact P4 quality floor of Figure 1 ("must
    yield better hit rates than randomly selecting elements"). *)

type t

val train :
  rng:Gr_util.Rng.t ->
  hooks:Gr_kernel.Hooks.t ->
  trace:int array ->
  ?epochs:int ->
  unit ->
  t
(** Fits the reuse-distance model on the trace and subscribes to
    ["cache:access"] for online bookkeeping. *)

val policy : t -> Gr_kernel.Cache.policy

val scorer : t -> Gr_nn.Scorer.t

val predicted_reuse_distance : t -> int -> float
(** The scorer's output on the key's (recency, frequency)
    ({!Gr_nn.Scorer.score}, which scales them). *)

val retrain : t -> trace:int array -> unit
val retrain_count : t -> int
