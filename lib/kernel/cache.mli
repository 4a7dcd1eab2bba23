(** Fixed-capacity cache with a pluggable replacement policy.

    Substrate for the P4 decision-quality example in Figure 1: "cache
    replacement — decisions of the model must yield better hit rates
    than randomly selecting elements". The slot hosts LRU (default
    safe fallback), uniform-random eviction (the paper's quality
    floor), or a learned policy that scores eviction candidates.

    Hook point fired: ["cache:access"] — [key], [hit]. *)

type victim_chooser = candidates:int array -> int
(** Given the currently cached keys, LRU first and never empty, returns
    the key to evict. *)

type policy = { policy_name : string; choose_victim : victim_chooser }

val lru : policy
(** Evicts the least recently used key. Implemented by the cache
    itself (the chooser receives candidates ordered LRU-first and
    picks the first). *)

val random : Gr_util.Rng.t -> policy

type t

val create : hooks:Hooks.t -> capacity:int -> t
val slot : t -> policy Policy_slot.t

val access : t -> key:int -> bool
(** [true] on hit. On miss the key is inserted, evicting a victim
    chosen by the live policy when full. *)

val contains : t -> key:int -> bool
val size : t -> int
val accesses : t -> int
val hits : t -> int
val hit_rate : t -> float
val reset_stats : t -> unit
