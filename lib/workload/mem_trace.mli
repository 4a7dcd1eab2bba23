(** Page-access trace generators for the memory and cache subsystems.

    Produces zipf-skewed access streams over a page universe, with an
    optional hot-set shift mid-trace — the workload drift that makes a
    trained placement model stale (P1), and a sequential-scan pattern
    that defeats recency-based policies (the "write-intensive random
    pattern" style failure the paper cites for learned placement). *)

type t

val zipfian :
  rng:Gr_util.Rng.t -> n_pages:int -> ?s:float -> unit -> t
(** Popularity-ranked pages with rank [i] mapped to page
    [(i + hot_offset) mod n_pages], [hot_offset] starting at 0;
    {!shift_hot_set} between phases moves the hot set. *)

val scan : n_pages:int -> t
(** Cyclic sequential sweep [0, 1, ..., n_pages-1, 0, ...]. *)

val mixed : rng:Gr_util.Rng.t -> scan_fraction:float -> t -> t -> t
(** Each access drawn from the second generator with probability
    [scan_fraction], else the first. *)

val next : t -> int
(** Next page number. *)

val shift_hot_set : t -> offset:int -> unit
(** Applies to zipfian generators (recursively through [mixed]);
    no-op for [scan]. *)
