(** Per-feature z-score normalisation.

    Learned policies fit a scaler on their training features and apply
    it at inference time. The scaler keeps only the per-feature mean
    and stddev; a policy that needs the training distribution itself
    (the P1 in-distribution guardrail's reference) keeps its features. *)

type t

val fit : float array array -> t
(** [fit rows] computes per-column mean and stddev over the dataset
    (rows of equal length). Requires a non-empty dataset. *)

val dim : t -> int

val transform : t -> float array -> float array
(** Z-scores one feature vector; columns with zero variance pass
    through unchanged. *)

val transform_into : t -> float array -> float array -> unit
(** [transform_into t x dst] writes [transform t x] into [dst], which
    must have length [dim t] and may be [x]; allocates nothing. *)

val mean : t -> int -> float
val stddev : t -> int -> float
