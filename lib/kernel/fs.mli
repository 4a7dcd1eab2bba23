(** File read path with a page cache and pluggable readahead.

    The paper's recurring learned-policy example is file readahead
    (§1, §2: "prefetch read ahead"), and its P3 illustration is a
    prefetcher "prefetching chunks from a file beyond the memory
    limit for a process". This substrate provides both sides:

    - a per-file page cache of bounded capacity (the process's memory
      limit), filled by demand misses and by readahead;
    - a readahead slot consulted on every miss: given recent access
      features it returns how many pages to prefetch. The returned
      window is applied as-is up to a hard sanity cap, and the raw
      request is published on the ["fs:readahead"] hook so a P3
      guardrail can check it against the memory limit; requests
      beyond the limit evict useful pages (the performance cost of
      the illegal output).

    The default policy mirrors Linux's sequential-detection readahead
    (double the window on sequential hits up to a maximum, reset on
    seeks). A learned policy predicts the run length instead.

    Hooks fired:
    - ["fs:read"]      — [offset], [hit]
    - ["fs:readahead"] — [requested], [limit] (pages) *)

type policy = {
  policy_name : string;
  window : float array -> int;
      (** [window features] -> pages to prefetch on a miss.
          Features: last access offset delta (pages), current
          sequential run length, cache occupancy fraction. *)
}

val sequential_doubling : unit -> policy
(** Linux-style heuristic: window doubles with the sequential run
    (4, 8, 16, ... up to 32); random seeks reset to 0. *)

type t

val create :
  hooks:Hooks.t ->
  cache_pages:int ->
  unit ->
  t
(** [cache_pages] is the process's page budget (the P3 memory limit).
    The file spans 65536 pages; a readahead is capped at 4x the
    budget. *)

val slot : t -> policy Policy_slot.t

val read : t -> offset:int -> bool
(** Reads one page; [true] on cache hit. On miss, the page is loaded
    and the policy's readahead window prefetched after it. *)

val reads : t -> int
val hits : t -> int
val hit_rate : t -> float
val prefetched : t -> int
(** Pages brought in by readahead. *)

val prefetch_wasted : t -> int
(** Prefetched pages evicted without ever being read. *)

val cache_occupancy : t -> int
val reset_stats : t -> unit
