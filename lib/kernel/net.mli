(** Network path model for congestion control.

    A single bottleneck link with a drop-tail queue, driven in fixed
    ticks: each tick the flow offers [rate] worth of traffic; the
    link drains at capacity; excess accumulates in the queue (adding
    queueing delay to the measured RTT) and overflows as loss once
    the queue is full. The congestion-controller slot is consulted
    every tick with the smoothed measurements and returns a rate
    multiplier.

    This is the substrate behind the paper's congestion-control
    examples: §2's "a learned congestion control may lead to a sudden
    drop in bandwidth utilization and fail to recover from it", and
    Figure 1's P2 row. A well-behaved controller (the {!aimd}
    fallback, or a trained {!Gr_policy.Cc_controller}) converges near
    capacity; an unstable one oscillates and collapses utilisation —
    observable on the ["net:tick"] hook.

    Hook fired every tick: ["net:tick"] with [rtt_ms], [loss],
    [rate_mbps], [util] (delivered/capacity, in [0,1]). *)

type controller = {
  controller_name : string;
  adjust : rtt_ms:float -> loss:float -> float;
      (** Rate multiplier for this tick, clamped to [0.1, 4.0]. *)
}

val aimd : controller
(** Additive-increase / multiplicative-decrease fallback: halve on
    loss, grow 2% otherwise. *)

type t

val create :
  engine:Gr_sim.Engine.t ->
  hooks:Hooks.t ->
  capacity_mbps:float ->
  unit ->
  t
(** A link with a 20ms base RTT, 50ms of buffering and 10ms ticks. *)

val slot : t -> controller Policy_slot.t

val start : t -> initial_rate_mbps:float -> unit
(** Begins ticking; idempotent. *)

val rate_mbps : t -> float
val rtt_ms : t -> float
(** Latest measured RTT (base + queueing delay). *)

val loss : t -> float
(** Loss fraction measured over the last tick. *)

val utilization : t -> float
(** Delivered/capacity over the last tick, in [0, 1]. *)

val mean_utilization : t -> float
(** Since [start]. *)

val ticks : t -> int
