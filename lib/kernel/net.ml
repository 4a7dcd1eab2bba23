open Gr_util

type controller = {
  controller_name : string;
  adjust : rtt_ms:float -> loss:float -> float;
}

let aimd =
  {
    controller_name = "aimd";
    adjust = (fun ~rtt_ms:_ ~loss -> if loss > 0.001 then 0.5 else 1.02);
  }

type t = {
  engine : Gr_sim.Engine.t;
  hooks : Hooks.t;
  capacity_mbps : float;
  slot : controller Policy_slot.t;
  mutable rate_mbps : float;
  mutable queue_ms : float; (* backlog expressed as drain time *)
  mutable rtt_ms : float;
  mutable loss : float;
  mutable util : float;
  mutable util_sum : float;
  mutable ticks : int;
  mutable running : bool;
}

let base_rtt = Time_ns.ms 20
let queue_capacity_ms = 50. (* buffering, as drain time *)
let tick = Time_ns.ms 10

let create ~engine ~hooks ~capacity_mbps () =
  if capacity_mbps <= 0. then invalid_arg "Net.create: capacity must be positive";
  {
    engine;
    hooks;
    capacity_mbps;
    slot = Policy_slot.create ~name:"net:congestion" ~fallback:("aimd", aimd);
    rate_mbps = 0.;
    queue_ms = 0.;
    rtt_ms = Time_ns.to_float_ms base_rtt;
    loss = 0.;
    util = 0.;
    util_sum = 0.;
    ticks = 0;
    running = false;
  }

let slot t = t.slot

let step t =
  let tick_ms = Time_ns.to_float_ms tick in
  (* Work is measured in megabit-milliseconds; the link drains
     capacity_mbps worth each tick. *)
  let offered = t.rate_mbps *. tick_ms in
  let drained = t.capacity_mbps *. tick_ms in
  let backlog = (t.queue_ms *. t.capacity_mbps) +. offered in
  let after = Float.max 0. (backlog -. drained) in
  let queue_cap = queue_capacity_ms *. t.capacity_mbps in
  let overflow = Float.max 0. (after -. queue_cap) in
  (* min, not subtraction: at extreme offered loads (after >> cap)
     [after -. overflow] cancels catastrophically. *)
  let retained = Float.min after queue_cap in
  t.queue_ms <- retained /. t.capacity_mbps;
  t.loss <- (if offered > 0. then overflow /. offered else 0.);
  let delivered = Float.min backlog drained in
  t.util <- Float.min 1. (delivered /. drained);
  t.util_sum <- t.util_sum +. t.util;
  t.ticks <- t.ticks + 1;
  t.rtt_ms <- Time_ns.to_float_ms base_rtt +. t.queue_ms;
  let controller = Policy_slot.current t.slot in
  let multiplier = controller.adjust ~rtt_ms:t.rtt_ms ~loss:t.loss in
  let multiplier = Float.max 0.1 (Float.min 4.0 multiplier) in
  (* The sending rate is bounded well above capacity but finite, as a
     real host's NIC would bound it. *)
  t.rate_mbps <-
    Float.max 0.1 (Float.min (100. *. t.capacity_mbps) (t.rate_mbps *. multiplier));
  Hooks.fire t.hooks "net:tick"
    [
      ("rtt_ms", t.rtt_ms);
      ("loss", t.loss);
      ("rate_mbps", t.rate_mbps);
      ("util", t.util);
    ]

let start t ~initial_rate_mbps =
  if not t.running then begin
    t.running <- true;
    t.rate_mbps <- initial_rate_mbps;
    ignore
      (Gr_sim.Engine.every t.engine ~interval:tick (fun _ -> step t) : Gr_sim.Engine.handle)
  end

let rate_mbps t = t.rate_mbps
let rtt_ms t = t.rtt_ms
let loss t = t.loss
let utilization t = t.util
let mean_utilization t = if t.ticks = 0 then 0. else t.util_sum /. float_of_int t.ticks
let ticks t = t.ticks
