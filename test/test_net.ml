(* Tests for the network-path substrate and the learned congestion
   controller running on it. *)

open Gr_util

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let make_net ?(capacity_mbps = 100.) () =
  let engine = Gr_sim.Engine.create () in
  let hooks = Gr_kernel.Hooks.create () in
  let net = Gr_kernel.Net.create ~engine ~hooks ~capacity_mbps () in
  (engine, hooks, net)

let test_aimd_converges_to_capacity () =
  let engine, _, net = make_net () in
  Gr_kernel.Net.start net ~initial_rate_mbps:1.;
  Gr_sim.Engine.run_until engine (Time_ns.sec 30);
  check_bool "high mean utilization" true (Gr_kernel.Net.mean_utilization net > 0.8);
  check_bool "rate near capacity" true
    (Gr_kernel.Net.rate_mbps net > 50. && Gr_kernel.Net.rate_mbps net < 220.)

let test_queue_builds_rtt () =
  let engine, _, net = make_net ~capacity_mbps:10. () in
  (* A controller that never backs off floods the queue. *)
  Gr_kernel.Policy_slot.install (Gr_kernel.Net.slot net) ~name:"flood"
    { Gr_kernel.Net.controller_name = "flood"; adjust = (fun ~rtt_ms:_ ~loss:_ -> 2.0) };
  Gr_kernel.Net.start net ~initial_rate_mbps:100.;
  Gr_sim.Engine.run_until engine (Time_ns.sec 2);
  (* base 20ms + full 50ms buffer. *)
  check_bool "rtt inflated by queueing" true (Gr_kernel.Net.rtt_ms net > 60.);
  check_bool "loss under overload" true (Gr_kernel.Net.loss net > 0.1);
  check_bool "utilization capped at 1" true (Gr_kernel.Net.utilization net <= 1.)

let test_idle_link_no_loss () =
  let engine, _, net = make_net () in
  Gr_kernel.Policy_slot.install (Gr_kernel.Net.slot net) ~name:"fixed"
    { Gr_kernel.Net.controller_name = "fixed"; adjust = (fun ~rtt_ms:_ ~loss:_ -> 1.0) };
  Gr_kernel.Net.start net ~initial_rate_mbps:10.;
  Gr_sim.Engine.run_until engine (Time_ns.sec 2);
  check_bool "no loss below capacity" true (Gr_kernel.Net.loss net = 0.);
  check_bool "rtt stays at base" true (Float.abs (Gr_kernel.Net.rtt_ms net -. 20.) < 0.5);
  check_bool "utilization ~10%" true (Float.abs (Gr_kernel.Net.utilization net -. 0.1) < 0.02)

let test_hook_published () =
  let engine, hooks, net = make_net () in
  let ticks = ref 0 in
  ignore
    (Gr_kernel.Hooks.subscribe hooks "net:tick" (fun args ->
         incr ticks;
         check_bool "args present" true
           (List.mem_assoc "rtt_ms" args && List.mem_assoc "util" args))
      : Gr_kernel.Hooks.subscription);
  Gr_kernel.Net.start net ~initial_rate_mbps:10.;
  Gr_sim.Engine.run_until engine (Time_ns.ms 105);
  check_int "one hook firing per tick" (Gr_kernel.Net.ticks net) !ticks;
  check_int "ten ticks in 105ms" 10 !ticks

let test_learned_controller_drives_link () =
  let engine, _, net = make_net () in
  let rng = Rng.create 9 in
  let cc = Gr_policy.Cc_controller.train ~rng () in
  Gr_kernel.Policy_slot.install (Gr_kernel.Net.slot net) ~name:"learned-cc"
    (Gr_policy.Cc_controller.controller cc);
  Gr_kernel.Net.start net ~initial_rate_mbps:10.;
  Gr_sim.Engine.run_until engine (Time_ns.sec 20);
  check_bool "trained controller sustains utilization" true
    (Gr_kernel.Net.mean_utilization net > 0.8)

let test_unstable_controller_degrades_and_fallback_recovers () =
  let engine, _, net = make_net () in
  let rng = Rng.create 10 in
  let cc = Gr_policy.Cc_controller.train ~rng () in
  Gr_kernel.Policy_slot.install (Gr_kernel.Net.slot net) ~name:"learned-cc"
    (Gr_policy.Cc_controller.controller cc);
  Gr_kernel.Net.start net ~initial_rate_mbps:10.;
  Gr_sim.Engine.run_until engine (Time_ns.sec 10);
  let warm_ticks = Gr_kernel.Net.ticks net in
  let warm_util = Gr_kernel.Net.mean_utilization net in
  Gr_policy.Cc_controller.inject_sensitivity cc ~scale:150.;
  Gr_sim.Engine.run_until engine (Time_ns.sec 20);
  let mid_util =
    (Gr_kernel.Net.mean_utilization net *. float_of_int (Gr_kernel.Net.ticks net))
    -. (warm_util *. float_of_int warm_ticks)
  in
  let mid_util = mid_util /. float_of_int (Gr_kernel.Net.ticks net - warm_ticks) in
  check_bool "unstable controller loses utilization" true (mid_util < warm_util -. 0.05);
  (* REPLACE's slot control puts the AIMD fallback back in service. *)
  Gr_kernel.Policy_slot.use_fallback (Gr_kernel.Net.slot net);
  let before = Gr_kernel.Net.ticks net in
  let before_util = Gr_kernel.Net.mean_utilization net *. float_of_int before in
  Gr_sim.Engine.run_until engine (Time_ns.sec 35);
  let rec_util =
    ((Gr_kernel.Net.mean_utilization net *. float_of_int (Gr_kernel.Net.ticks net)) -. before_util)
    /. float_of_int (Gr_kernel.Net.ticks net - before)
  in
  check_bool "fallback recovers utilization" true (rec_util > mid_util)

let suite =
  [
    ( "kernel.net",
      [
        Alcotest.test_case "AIMD converges" `Quick test_aimd_converges_to_capacity;
        Alcotest.test_case "queue builds RTT and loss" `Quick test_queue_builds_rtt;
        Alcotest.test_case "idle link clean" `Quick test_idle_link_no_loss;
        Alcotest.test_case "hook published" `Quick test_hook_published;
        Alcotest.test_case "learned controller drives link" `Slow
          test_learned_controller_drives_link;
        Alcotest.test_case "instability degrades; fallback recovers" `Slow
          test_unstable_controller_degrades_and_fallback_recovers;
      ] );
  ]
