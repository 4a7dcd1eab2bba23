open Gr_util

type decision = Hedge of Time_ns.t | Trust_primary | Revoke_now

type policy = { policy_name : string; decide : float array -> decision }

let slow_threshold_us = 300.
let feature_history = 4
let hedge_timeout = Time_ns.of_float_sec (slow_threshold_us *. 1e-6)
let revoke_overhead = Time_ns.us 15
let hedge_policy () = { policy_name = "hedge"; decide = (fun _ -> Hedge hedge_timeout) }

type io_result = {
  submitted_at : Time_ns.t;
  latency : Time_ns.t;
  served_by : int;
  redirected : bool;
  decision : decision;
  primary_was_slow : bool;
}

type t = {
  engine : Gr_sim.Engine.t;
  hooks : Hooks.t;
  devices : Ssd.t array;
  slot : policy Policy_slot.t;
  mutable completed : int;
  mutable false_submits : int;
  mutable false_revokes : int;
  mutable redirects : int;
  mutable hedge_fires : int;
}

let create ~engine ~hooks ~devices () =
  if Array.length devices < 2 then invalid_arg "Blk.create: need at least two devices";
  {
    engine;
    hooks;
    devices;
    slot = Policy_slot.create ~name:"blk:submission" ~fallback:("hedge", hedge_policy ());
    completed = 0;
    false_submits = 0;
    false_revokes = 0;
    redirects = 0;
    hedge_fires = 0;
  }

let slot t = t.slot

let features t ~primary =
  let n = Array.length t.devices in
  let p = t.devices.(primary mod n) in
  let r = t.devices.((primary + 1) mod n) in
  Array.append
    [| float_of_int (Ssd.queue_depth p); float_of_int (Ssd.queue_depth r) |]
    (Ssd.recent_latencies_us p ~n:feature_history)

let feature_dim _ = 2 + feature_history

let bool_arg b = if b then 1. else 0.

let decision_code = function Hedge _ -> 0. | Trust_primary -> 1. | Revoke_now -> 2.

(* Occupies [dev]'s queue for [latency], then runs [k]. *)
let occupy t ~dev ~latency k =
  Ssd.begin_io t.devices.(dev);
  let finish _engine =
    Ssd.end_io t.devices.(dev) ~latency;
    k ()
  in
  ignore (Gr_sim.Engine.schedule_after t.engine latency finish : Gr_sim.Engine.handle)

let submit_read t ~primary ~on_complete =
  let n = Array.length t.devices in
  let primary = primary mod n in
  let replica = (primary + 1) mod n in
  let now = Gr_sim.Engine.now t.engine in
  let policy = Policy_slot.current t.slot in
  let decision = policy.decide (features t ~primary) in
  (* Ground truth: the latency the primary would serve this I/O at. *)
  let primary_latency = Ssd.draw_latency t.devices.(primary) ~now in
  let primary_was_slow = Time_ns.to_float_us primary_latency > slow_threshold_us in
  Hooks.fire t.hooks "blk:io_submit"
    [ ("dev", float_of_int primary); ("decision", decision_code decision) ];
  (* What the hedge baseline would have paid for this I/O: the
     primary's ground-truth latency if it beats the timeout, else the
     timeout plus a typical replica service time (estimated from the
     replica's recent completions; its base profile median before any
     history accumulates). *)
  let hedge_counterfactual =
    if Time_ns.compare primary_latency hedge_timeout <= 0 then primary_latency
    else begin
      let replica_dev = t.devices.(replica) in
      let recent = Ssd.recent_latencies_us replica_dev ~n:4 in
      let observed = Array.of_list (List.filter (fun v -> v > 0.) (Array.to_list recent)) in
      let typical_us =
        if Array.length observed > 0 then
          Array.fold_left ( +. ) 0. observed /. float_of_int (Array.length observed)
        else (Ssd.profile replica_dev).base_latency_us
      in
      Time_ns.add hedge_timeout
        (Time_ns.add (Time_ns.of_float_sec (typical_us *. 1e-6)) revoke_overhead)
    end
  in
  let complete ~served_by ~latency ~redirected ~hedged =
    t.completed <- t.completed + 1;
    let false_submit =
      match decision with Trust_primary -> primary_was_slow | Hedge _ | Revoke_now -> false
    in
    let false_revoke =
      match decision with Revoke_now -> not primary_was_slow | Hedge _ | Trust_primary -> false
    in
    if false_submit then t.false_submits <- t.false_submits + 1;
    if false_revoke then t.false_revokes <- t.false_revokes + 1;
    if redirected then t.redirects <- t.redirects + 1;
    Hooks.fire t.hooks "blk:io_complete"
      [
        ("latency_us", Time_ns.to_float_us latency);
        ("dev", float_of_int served_by);
        ("redirected", bool_arg redirected);
        ("false_submit", bool_arg false_submit);
        ("false_revoke", bool_arg false_revoke);
        ("hedged", bool_arg hedged);
        ("hedge_counterfactual_us", Time_ns.to_float_us hedge_counterfactual);
      ];
    on_complete
      { submitted_at = now; latency; served_by; redirected; decision; primary_was_slow }
  in
  match decision with
  | Trust_primary ->
    occupy t ~dev:primary ~latency:primary_latency (fun () ->
        complete ~served_by:primary ~latency:primary_latency ~redirected:false ~hedged:false)
  | Revoke_now ->
    let replica_latency = Ssd.draw_latency t.devices.(replica) ~now in
    let latency = Time_ns.add replica_latency revoke_overhead in
    occupy t ~dev:replica ~latency:replica_latency (fun () ->
        complete ~served_by:replica ~latency ~redirected:true ~hedged:false)
  | Hedge timeout ->
    if Time_ns.compare primary_latency timeout <= 0 then
      occupy t ~dev:primary ~latency:primary_latency (fun () ->
          complete ~served_by:primary ~latency:primary_latency ~redirected:false ~hedged:false)
    else begin
      (* Timeout expires: the primary slot is held until the timeout,
         then the I/O is revoked and reissued to the replica. *)
      t.hedge_fires <- t.hedge_fires + 1;
      occupy t ~dev:primary ~latency:timeout (fun () ->
          let now' = Gr_sim.Engine.now t.engine in
          let replica_latency = Ssd.draw_latency t.devices.(replica) ~now:now' in
          let total =
            Time_ns.add timeout (Time_ns.add replica_latency revoke_overhead)
          in
          occupy t ~dev:replica ~latency:replica_latency (fun () ->
              complete ~served_by:replica ~latency:total ~redirected:true ~hedged:true))
    end

let ios_completed t = t.completed
let false_submits t = t.false_submits
let false_revokes t = t.false_revokes
let redirects t = t.redirects
let hedge_fires t = t.hedge_fires
