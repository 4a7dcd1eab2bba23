(** Learned file readahead.

    Predicts how much of the current sequential run is still ahead —
    from the last offset delta, the run length so far, and cache
    occupancy — and prefetches that many pages. Trained on access
    streams with a characteristic run-length distribution, it beats
    the doubling heuristic on workloads with long runs (it jumps
    straight to a large window) and backs off instantly on random
    access.

    {!inject_scale} multiplies the predicted window, modelling the
    P3 failure from the paper's property table: a prefetcher
    requesting "chunks from a file beyond the memory limit for a
    process". *)

type t

val train :
  rng:Gr_util.Rng.t ->
  ?mean_run:float ->
  ?samples:int ->
  ?epochs:int ->
  unit ->
  t
(** Trains on a synthetic stream of sequential runs (geometric, mean
    [mean_run], default 24 pages) separated by random seeks. *)

val policy : t -> Gr_kernel.Fs.policy
val predict_window : t -> delta:float -> run:float -> occupancy:float -> int
val scorer : t -> Gr_nn.Scorer.t

val score : t -> delta:float -> run:float -> occupancy:float -> float
(** The scorer's output on the input vector these arguments fill
    ({!Gr_nn.Scorer.score}). *)

val inject_scale : t -> float -> unit
(** Multiplies requested windows; [1.] restores honesty. *)

val retrain : t -> mean_run:float -> unit
val retrain_count : t -> int
