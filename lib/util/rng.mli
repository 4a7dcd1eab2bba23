(** Deterministic pseudo-random number generation.

    Every stochastic component in the simulator (device latency models,
    workload generators, neural-network initialisation) draws from an
    explicit [Rng.t] so that experiments are reproducible bit-for-bit
    from a seed. The generator is splitmix64, which is fast, has a
    one-word state, and supports cheap splitting into independent
    streams.

    Domain-safety: a generator is single-owner mutable state. Every
    operation below mutates [t] in place with no internal locking, so a
    [t] must only ever be used from the domain that owns it. For
    parallel fleets, derive one independent stream per node with
    {!split} (pure, indexed) before spawning and hand each domain its
    own generator; never share one [t] across domains. *)

type t

val create : int -> t
(** [create seed] returns a fresh generator. Generators created from
    the same seed produce identical streams. *)

val copy : t -> t
(** [copy t] duplicates the generator state; the copy evolves
    independently afterwards. *)

val fork : t -> t
(** [fork t] derives a new independent generator from [t], advancing
    [t]. Use one forked stream per subsystem so that adding draws in
    one subsystem does not perturb another. *)

val split : t -> int -> t
(** [split t i] derives a new independent generator from [t] and the
    stream index [i] {e without} advancing [t]: it is a pure function
    of [t]'s current state and [i], so [split t i] is the same stream
    no matter how many other indices were split before it. This is the
    per-node seeding primitive for parallel fleets — node [i]'s stream
    depends only on the fleet seed and [i], never on construction
    order. *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. Requires [bound > 0]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool

val gaussian : t -> mu:float -> sigma:float -> float
(** Normal deviate via Box-Muller. *)

val exponential : t -> rate:float -> float
(** Exponential deviate with the given rate (mean [1/rate]).
    Requires [rate > 0.]. *)

val lognormal : t -> mu:float -> sigma:float -> float
(** Log-normal deviate, [exp (gaussian mu sigma)]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val choice : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

module Zipf : sig
  type rng := t

  type t
  (** Sampler for a Zipf(s) distribution over [{0, .., n-1}], used for
      skewed address/page popularity. Construction is O(n); sampling is
      O(log n) by inverse-CDF binary search. *)

  val create : n:int -> s:float -> t
  val sample : t -> rng -> int
end
