(** Learned fast-tier quota advisor — the P3 out-of-bounds subject.

    Figure 1's P3 example is "memory allocation: ensure allocation by
    the model is within available memory". This regressor proposes a
    fast-tier page reservation from the observed miss rate and
    occupancy. Under {!inject_drift} (standing in for a stale or
    corrupted model) its proposals scale beyond the tier's capacity —
    illegal outputs that {!Gr_kernel.Mm.advise_quota} refuses and the
    P3 guardrail detects on the ["mm:quota"] hook. *)

type t

val train : rng:Gr_util.Rng.t -> capacity:int -> ?samples:int -> ?epochs:int -> unit -> t
(** Learns the (sane) mapping: higher miss rate -> larger share of
    [capacity], saturating at capacity. *)

val propose : t -> miss_rate:float -> occupancy:float -> int
(** Proposed quota in pages; honest model outputs lie in
    [0, capacity]. *)

val scorer : t -> Gr_nn.Scorer.t

val score : t -> miss_rate:float -> occupancy:float -> float
(** The scorer's output on the input vector these arguments fill
    ({!Gr_nn.Scorer.score}). *)

val inject_drift : t -> scale:float -> unit
(** Multiplies proposals by [scale]; > 1 produces out-of-bounds
    requests. [1.] restores honesty. *)

val drift : t -> float
