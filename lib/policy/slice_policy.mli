(** Learned scheduler time-slice policy.

    An MLP regressor trained to imitate the CFS slice rule. The
    failure mode demonstrated for the P6 liveness guardrail is
    training-serving skew by feature omission: the initial model was
    fitted on traces where the runqueue was always short, and the
    developer dropped the "uninformative" runqueue-length column. The
    model learns the average training slice and cannot scale slices
    down under load, so when a burst piles tasks onto the runqueue,
    latency-sensitive tasks starve. DEPRIORITIZE (A4) and REPLACE
    (A2) mitigate; {!retrain} (A3) repairs the feature set.

    The raw (unclamped) predicted slice is published by the scheduler
    on the ["sched:dispatch"] hook, so the P3 out-of-bounds guardrail
    can also watch it. *)

type t

val train :
  rng:Gr_util.Rng.t ->
  ?max_training_runnable:int ->
  ?samples:int ->
  ?epochs:int ->
  unit ->
  t
(** Builds imitation data for runqueue sizes in
    [1, max_training_runnable] (default 4) and fits the regressor. *)

val policy : t -> Gr_kernel.Sched.policy

val predicted_slice_ms : t -> nr_runnable:int -> weight:int -> received_ms:float -> float
val scorer : t -> Gr_nn.Scorer.t

val score : t -> nr_runnable:int -> weight:int -> received_ms:float -> float
(** The scorer's output on the input vector these arguments fill
    ({!Gr_nn.Scorer.score}). *)

val retrain : t -> max_training_runnable:int -> unit
(** Refits with the runqueue-length feature restored and coverage up
    to the given runqueue size. *)

val retrain_count : t -> int
