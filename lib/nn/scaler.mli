(** Per-feature z-score normalisation.

    Learned policies fit a scaler on their training features and apply
    it at inference time. The scaler also exposes the training-time
    distribution summary (mean/stddev/quantile envelope per feature),
    which is exactly what the P1 in-distribution guardrail compares
    live inputs against. *)

type t

val fit : float array array -> t
(** [fit rows] computes per-column mean and stddev over the dataset
    (rows of equal length). Requires a non-empty dataset. *)

val dim : t -> int

val transform : t -> float array -> float array
(** Z-scores one feature vector; columns with zero variance pass
    through unchanged. *)

val mean : t -> int -> float
val stddev : t -> int -> float

val envelope : t -> quantiles:float array -> int -> float array
(** [envelope t ~quantiles col] is the training-set quantile envelope
    of column [col]; requires the scaler was built with {!fit}. *)
