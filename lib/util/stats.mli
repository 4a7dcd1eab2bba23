(** Streaming and batch statistics.

    The guardrail properties of the paper are all statistical: drift in
    input distributions (P1), output variance vs input variance (P2),
    rolling decision quality (P4), latency budgets (P5), fairness and
    starvation (P6). This module provides the estimators they are
    built from. All streaming estimators use O(1) or small-constant
    state so they are cheap enough to run on every sample, matching the
    in-kernel-budget constraint the paper emphasises. *)

module Welford : sig
  (** Numerically stable streaming mean / variance (Welford's
      algorithm), plus min/max. *)

  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val mean : t -> float
  (** 0. when empty. *)

  val variance : t -> float
  (** Population variance; 0. with fewer than two samples. *)

  val stddev : t -> float
  val min : t -> float
  (** [infinity] when empty. *)

  val max : t -> float
  (** [neg_infinity] when empty. *)

  val reset : t -> unit
  val merge : t -> t -> t
  (** Combines two summaries (Chan's parallel formula). *)
end

module Ewma : sig
  (** Exponentially weighted moving average. *)

  type t

  val create : alpha:float -> t
  (** Requires [0. < alpha <= 1.]; larger alpha weights recent samples
      more. *)

  val add : t -> float -> unit
  val value : t -> float
  (** 0. when no sample has been added. *)

  val initialized : t -> bool
  val reset : t -> unit
end

module P2 : sig
  (** P² streaming quantile estimator (Jain & Chlamtac 1985): tracks a
      single quantile with five markers and no sample storage. *)

  type t

  val create : q:float -> t
  (** Requires [0. < q < 1.]. *)

  val add : t -> float -> unit
  (** NaN samples are ignored. *)

  val quantile : t -> float
  (** Current estimate; exact while fewer than five samples. [nan]
      when empty. *)

  val count : t -> int
end

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
