open Gr_util

type profile = {
  base_latency_us : float;
  latency_sigma : float;
  gc_period : Time_ns.t;
  gc_duration : Time_ns.t;
  gc_multiplier : float;
  queue_service_us : float;
}

let young_profile =
  {
    base_latency_us = 90.;
    latency_sigma = 0.25;
    gc_period = Time_ns.ms 40;
    gc_duration = Time_ns.us 1500;
    gc_multiplier = 8.;
    queue_service_us = 6.;
  }

let aged_profile =
  {
    base_latency_us = 100.;
    latency_sigma = 0.35;
    gc_period = Time_ns.ms 12;
    gc_duration = Time_ns.ms 3;
    gc_multiplier = 20.;
    queue_service_us = 8.;
  }

type t = {
  id : int;
  rng : Rng.t;
  mutable profile : profile;
  mutable queue : int;
  mutable completed : int;
  mutable dead : bool;
  mutable deaths : int;
  gc_phase : Time_ns.t; (* per-device offset so devices don't GC in lockstep *)
  history : float Ring.t; (* recent completed latencies, us *)
}

(* Service latency of a dead device: a command timeout, not an error
   return — the device model has no error path, so death is the
   pathological tail every latency guardrail must catch. *)
let dead_latency = Time_ns.ms 2000

let create ~rng ~profile ~id =
  let rng = Rng.fork rng in
  {
    id;
    rng;
    profile;
    queue = 0;
    completed = 0;
    dead = false;
    deaths = 0;
    gc_phase = Rng.int rng (max 1 profile.gc_period);
    history = Ring.create ~capacity:64;
  }

let id t = t.id
let profile t = t.profile
let set_profile t profile = t.profile <- profile
let queue_depth t = t.queue

let in_gc t ~now =
  let p = t.profile in
  if p.gc_period <= 0 then false
  else (now + t.gc_phase) mod p.gc_period < p.gc_duration

let draw_latency t ~now =
  if t.dead then dead_latency
  else begin
    let p = t.profile in
    let mu = log p.base_latency_us in
    let base_us = Rng.lognormal t.rng ~mu ~sigma:p.latency_sigma in
    let gc_factor = if in_gc t ~now then p.gc_multiplier else 1.0 in
    let queue_us = float_of_int t.queue *. p.queue_service_us in
    (* microseconds -> nanoseconds *)
    int_of_float (Float.round (((base_us *. gc_factor) +. queue_us) *. 1_000.))
  end

let kill t =
  if not t.dead then begin
    t.dead <- true;
    t.deaths <- t.deaths + 1
  end

let revive t = t.dead <- false
let deaths t = t.deaths

let begin_io t = t.queue <- t.queue + 1

let end_io t ~latency =
  t.queue <- max 0 (t.queue - 1);
  t.completed <- t.completed + 1;
  Ring.push t.history (Time_ns.to_float_us latency)

let recent_latencies_us t ~n =
  let len = Ring.length t.history in
  let take = min n len in
  Array.init n (fun i ->
      if i < n - take then 0. else Ring.get t.history (len - take + (i - (n - take))))

let completed t = t.completed
