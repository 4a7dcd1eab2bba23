(** Flash SSD device model.

    Reproduces the latency behaviour LinnOS exploits: most reads are
    fast, but a device periodically enters garbage-collection episodes
    during which service latencies inflate by an order of magnitude,
    and a deep device queue adds service delay. The model is a
    lognormal base latency, a deterministic per-device GC phase
    (period/duration/multiplier), and a linear queue penalty.

    Regime shifts — the trigger for Figure 2 — are induced with
    {!set_profile}: an "aged" device spends much more time in GC, so a
    classifier trained on the young regime goes stale. *)

type profile = {
  base_latency_us : float;  (** median fast-path read latency *)
  latency_sigma : float;  (** lognormal shape of the fast path *)
  gc_period : Gr_util.Time_ns.t;  (** time between GC episode starts *)
  gc_duration : Gr_util.Time_ns.t;  (** length of each episode *)
  gc_multiplier : float;  (** latency inflation during GC *)
  queue_service_us : float;  (** added latency per already-queued I/O *)
}

val young_profile : profile
(** Healthy device: ~90us median, brief (2ms) GC every 40ms. *)

val aged_profile : profile
(** Worn device: GC every 12ms for 6ms at a higher multiplier — the
    regime the model was never trained on. *)

type t

val create : rng:Gr_util.Rng.t -> profile:profile -> id:int -> t
val id : t -> int
val profile : t -> profile
val set_profile : t -> profile -> unit

val queue_depth : t -> int
val in_gc : t -> now:Gr_util.Time_ns.t -> bool

val kill : t -> unit
(** Device death: every subsequent I/O is served at a 2s command
    timeout (there is no error path in the model, so death shows up
    as the worst possible tail latency). Idempotent. *)

val revive : t -> unit
(** Brings a dead device back to its configured profile. *)

val deaths : t -> int
(** Times this device has been killed. *)

val draw_latency : t -> now:Gr_util.Time_ns.t -> Gr_util.Time_ns.t
(** Samples the service latency an I/O issued at [now] would see,
    given current queue depth and GC state. Does not change device
    state: the block layer calls this for the primary before deciding
    whether to revoke. *)

val begin_io : t -> unit
(** Enqueue an I/O (bumps queue depth). *)

val end_io : t -> latency:Gr_util.Time_ns.t -> unit
(** Complete an I/O: drops queue depth, records the latency in the
    device's recent-latency history. *)

val recent_latencies_us : t -> n:int -> float array
(** Up to [n] most recent completed latencies (newest last), in
    microseconds, zero-padded at the front when history is short.
    These are the LinnOS model features. *)

val completed : t -> int
