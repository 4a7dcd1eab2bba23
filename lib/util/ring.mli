(** Fixed-capacity ring buffer.

    Used for bounded histories everywhere state must not grow without
    bound (recent-latency features, oscillation flip logs). Pushing
    into a full ring evicts the oldest element. *)

type 'a t

val create : capacity:int -> 'a t
(** Requires [capacity > 0]. *)

val capacity : 'a t -> int
val length : 'a t -> int
val is_empty : 'a t -> bool
val clear : 'a t -> unit

val push : 'a t -> 'a -> unit
(** Appends newest element, evicting the oldest if full. *)

val get : 'a t -> int -> 'a
(** [get t i] is the [i]-th oldest element, [0 <= i < length t].
    @raise Invalid_argument if out of range. *)

val newest : 'a t -> 'a option
val oldest : 'a t -> 'a option

val iter : ('a -> unit) -> 'a t -> unit
(** Oldest to newest. *)

val fold : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
(** Oldest to newest. *)

val to_list : 'a t -> 'a list
(** Oldest to newest. *)

val drop_while_oldest : ('a -> bool) -> 'a t -> unit
(** Evicts oldest elements while the predicate holds; used to expire
    samples that fell out of a time window. *)
