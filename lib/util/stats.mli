(** Batch statistics.

    The guardrail properties of the paper are all statistical: drift in
    input distributions (P1), output variance vs input variance (P2),
    rolling decision quality (P4), latency budgets (P5), fairness and
    starvation (P6). This module provides the batch estimators they
    are built from. Streaming state lives where it is used: in the
    feature store's running aggregates and the metrics registry's
    per-monitor accounts. *)

val mean : float array -> float
val variance : float array -> float
val stddev : float array -> float

val quantile_sorted : float array -> float -> float
(** [quantile_sorted xs q] with [xs] sorted ascending; linear
    interpolation between order statistics. [nan] on empty input. *)

val quantile : float array -> float -> float
(** Sorts a copy; [nan] on empty input. *)

val quantile_envelope : float array -> float array -> float array
(** [quantile_envelope xs qs] evaluates [quantile xs] at each point of
    [qs]; the P1 drift detector stores this envelope at training time. *)

val ks_distance : float array -> float array -> float
(** Two-sample Kolmogorov-Smirnov statistic: max distance between the
    empirical CDFs. Drives the P1 in-distribution property. 0. when
    either sample is empty. *)

val jain_index : float array -> float
(** Jain's fairness index in (0,1]; 1. is perfectly fair. Drives the
    P6 fairness property. 1. on empty or all-zero input. *)

val moving_average : window:int -> float array -> float array
(** Trailing moving average used when printing Figure 2 style series. *)
