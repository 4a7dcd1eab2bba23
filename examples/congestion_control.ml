(* Congestion control: the P2 robustness guardrail plus a behavioural
   utilisation floor, on a bottleneck-link substrate.

   The paper's §2 motivates guardrails with exactly this failure: "a
   learned congestion control may lead to a sudden drop in bandwidth
   utilization and fail to recover from it". A trained controller
   drives a 100 Mbps link close to capacity; at t=10s we swap in an
   unstable variant (standing in for a model update gone wrong).
   Two guardrails watch it:

   - P2 (input robustness): a periodic prober perturbs the
     controller's inputs and saves the output swing; the rule bounds
     it.
   - behavioural: the link's 2s mean utilisation must stay above 60%.

   Either firing disables the learned controller; the AIMD fallback
   takes over and utilisation recovers.

   Run with: dune exec examples/congestion_control.exe *)

open Gr_util

(* Counterfactual arm: the same scenario with no guardrails, showing
   the paper's "sudden drop in bandwidth utilization" unmitigated. *)
let unguarded_series () =
  let kernel = Guardrails.Kernel.create ~seed:29 in
  let net =
    Guardrails.Net.create ~engine:kernel.engine ~hooks:kernel.hooks ~capacity_mbps:100. ()
  in
  let cc = Gr_policy.Cc_controller.train ~rng:kernel.rng () in
  Guardrails.Policy_slot.install (Guardrails.Net.slot net) ~name:"learned-cc"
    (Gr_policy.Cc_controller.controller cc);
  Guardrails.Net.start net ~initial_rate_mbps:10.;
  ignore
    (Guardrails.Sim.schedule_at kernel.engine (Time_ns.sec 10) (fun _ ->
         Gr_policy.Cc_controller.inject_sensitivity cc ~scale:150.)
      : Guardrails.Sim.handle);
  let series = ref [] in
  let last_sum = ref 0. and last_ticks = ref 0 in
  ignore
    (Guardrails.Sim.every kernel.engine ~interval:(Time_ns.sec 1) (fun _ ->
         let total = Guardrails.Net.mean_utilization net *. float_of_int (Guardrails.Net.ticks net) in
         let window = total -. !last_sum and n = Guardrails.Net.ticks net - !last_ticks in
         last_sum := total;
         last_ticks := Guardrails.Net.ticks net;
         series := (if n = 0 then 0. else window /. float_of_int n) :: !series)
      : Guardrails.Sim.handle);
  Guardrails.Kernel.run_until kernel (Time_ns.sec 20);
  List.rev !series

let () =
  let unguarded = unguarded_series () in
  let kernel = Guardrails.Kernel.create ~seed:29 in
  let net =
    Guardrails.Net.create ~engine:kernel.engine ~hooks:kernel.hooks ~capacity_mbps:100. ()
  in
  let cc = Gr_policy.Cc_controller.train ~rng:kernel.rng () in
  Guardrails.Policy_slot.install (Guardrails.Net.slot net) ~name:"learned-cc"
    (Gr_policy.Cc_controller.controller cc);
  Guardrails.Kernel.register_policy kernel ~name:"cc"
    ~replace:(fun () -> Guardrails.Policy_slot.use_fallback (Guardrails.Net.slot net))
    ~restore:(fun () -> Guardrails.Policy_slot.restore (Guardrails.Net.slot net))
    ();

  let d = Guardrails.Deployment.create ~kernel () in
  Guardrails.Deployment.forward_hook_arg d ~hook:"net:tick" ~arg:"util" ~key:"net_util" ();
  Gr_props.Props.P2_robustness.instrument_cc d cc ~rng:kernel.rng ~key:"cc_sensitivity"
    ~every:(Time_ns.ms 100);
  let guardrails =
    Gr_props.Props.P2_robustness.source ~name:"cc-robustness" ~sensitivity_key:"cc_sensitivity"
      ~bound:10. ~window:(Time_ns.sec 1) ~check_every:(Time_ns.ms 200)
      ~actions:
        [ {|REPORT("controller is noise-sensitive", cc_sensitivity)|}; {|REPLACE("cc")|} ]
      ()
    ^ {|
guardrail utilization-floor {
  trigger: { TIMER(0, 500ms) }
  rule: { COUNT(net_util, 2s) == 0 || AVG(net_util, 2s) >= 0.6 }
  action: { REPORT("bandwidth utilization collapsed", net_util); REPLACE("cc") }
}
|}
  in
  ignore (Guardrails.Deployment.install_source_exn d guardrails : Guardrails.Engine.handle list);

  Guardrails.Net.start net ~initial_rate_mbps:10.;
  ignore
    (Guardrails.Sim.schedule_at kernel.engine (Time_ns.sec 10) (fun _ ->
         print_endline "t=10s: model update makes the controller unstable";
         Gr_policy.Cc_controller.inject_sensitivity cc ~scale:150.)
      : Guardrails.Sim.handle);

  (* Sample utilisation per second. *)
  let series = ref [] in
  ignore
    (Guardrails.Sim.every kernel.engine ~interval:(Time_ns.sec 1) (fun e ->
         series :=
           (Gr_sim.Engine.now e, Guardrails.Store.aggregate (Guardrails.Deployment.store d)
              ~key:"net_util" ~fn:Guardrails.Ast.Avg ~window_ns:1e9 ~param:0.)
           :: !series)
      : Guardrails.Sim.handle);

  Guardrails.Kernel.run_until kernel (Time_ns.sec 20);

  (match Guardrails.Engine.violations (Guardrails.Deployment.engine d) with
  | [] -> print_endline "no guardrail fired"
  | v :: _ as all ->
    Format.printf "%d violation(s); first: %s at %a@." (List.length all)
      v.Guardrails.Engine.monitor Time_ns.pp v.Guardrails.Engine.at);
  Printf.printf "controller on its AIMD fallback at end: %b\n"
    (Guardrails.Policy_slot.on_fallback (Guardrails.Net.slot net));
  print_endline "link utilisation (1s windows):   unguarded   guardrailed";
  List.iter2
    (fun (at, util) unguarded ->
      Format.printf "  %a  %24.1f%%  %10.1f%%@." Time_ns.pp at (100. *. unguarded)
        (100. *. util))
    (List.rev !series) unguarded
