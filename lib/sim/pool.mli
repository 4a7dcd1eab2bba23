(** A small fork-join pool over OCaml 5 domains.

    Built for the epoch-barrier fleet ({!Gr_core.Fleet} via
    docs/PARALLEL.md): each epoch runs one task per node, participant
    [k] of [d] runs the fixed contiguous block of indices
    [k·n/d .. (k+1)·n/d - 1] in order, and the caller blocks until
    every task has finished — a full barrier. Workers are
    spawned once at {!create} and parked between rounds, so per-epoch
    overhead is two lock/broadcast handshakes, not a domain spawn.

    Tasks of one round MUST be mutually independent: tasks of different
    blocks run concurrently in no fixed order. Anything order-sensitive
    belongs in the sequential barrier phase between rounds, on the
    calling domain.

    The calling domain participates in every round, so [~domains:k]
    uses [k] cores with [k - 1] spawned domains, and [~domains:1] is a
    plain sequential loop (no domains, no locks). *)

type t

val create : domains:int -> t
(** Spawn [domains - 1] parked workers. Requires [domains >= 1].
    @raise Invalid_argument otherwise. Always pair with {!shutdown}
    (or use {!with_pool}): live workers keep the process from
    exiting. *)

val size : t -> int
(** The configured domain count (including the calling domain). *)

val run : t -> (int -> unit) -> int -> unit
(** [run t f n] executes [f 0 .. f (n-1)] across the pool and returns
    once all have completed (barrier). If any task raises, the round
    still drains and the exception of the lowest raising index is
    re-raised in the calling domain. Not reentrant: one round at a
    time. *)

val shutdown : t -> unit
(** Wake and join all workers. The pool must not be used afterwards. *)

val with_pool : domains:int -> (t -> 'a) -> 'a
(** [with_pool ~domains f] runs [f] with a fresh pool and shuts it
    down when [f] returns or raises. *)
