(** Two-tier memory manager.

    Pages live in a fast tier (bounded capacity) or a slow tier.
    Accessing a slow page costs a major-fault-style latency and asks
    the placement policy whether to promote it (evicting the least
    recently used fast page when full). The placement slot hosts a
    learned policy (Kleio/IDT-style); the paper's P1 drift and A3
    retrain examples run against this subsystem, and the P3
    out-of-bounds example uses {!advise_quota} — a policy-proposed
    fast-tier reservation that is illegal when it exceeds capacity.

    Hook points fired:
    - ["mm:access"]     — [page], [fast] (1 if served by fast tier)
    - ["mm:page_fault"] — [latency_us]
    - ["mm:promote"]    — [page]
    - ["mm:quota"]      — [requested], [capacity] *)

type policy = {
  policy_name : string;
  promote : float array -> bool;
      (** [promote features] decides promotion on a slow-tier access.
          Features: access count, time since previous access (ms),
          fast-tier occupancy fraction. *)
}

val promote_on_second_touch : policy
(** Default heuristic: promote a page on its second access within the
    tracking horizon. *)

type t

val create :
  engine:Gr_sim.Engine.t ->
  hooks:Hooks.t ->
  fast_capacity:int ->
  unit ->
  t
(** Fast-tier hits cost 120ns, slow-tier accesses 2us, and a
    promotion adds 4us to the access that triggers it. *)

val slot : t -> policy Policy_slot.t

val access : t -> page:int -> Gr_util.Time_ns.t
(** Touches a page, returns the access latency (also advances no
    simulated time itself; callers schedule with it as needed). *)

val advise_quota : t -> requested:int -> [ `Applied of int | `Rejected ]
(** Applies a policy-proposed fast-tier reservation. Requests beyond
    capacity are clamped-and-reported via the ["mm:quota"] hook —
    the P3 guardrail watches for [requested > capacity]. *)

val fast_capacity : t -> int
val fast_occupancy : t -> int
val accesses : t -> int
val fast_hits : t -> int
val hit_fraction : t -> float
val promotions : t -> int
