(* Ablation D — incremental deployment (§3.3).

   "A key feature of guardrails is that they allow incremental
   deployment: more guardrails can be incrementally added to check
   for more properties."

   One kernel hosts four misbehaving learned policies at once
   (stale LinnOS classifier, drifted quota advisor, noise-sensitive
   congestion controller, wild slice policy). We deploy guardrails
   one at a time and report, after each addition, how many of the
   four live faults are covered by at least one firing monitor and
   what the accumulated checking work costs. Coverage grows step by
   step; checking cost stays in microseconds of estimated work per
   simulated second. *)

open Gr_util
module Props = Gr_props.Props

type rig = {
  kernel : Gr_kernel.Kernel.t;
  d : Guardrails.Deployment.t;
}

let build_faulty_world () =
  let kernel = Gr_kernel.Kernel.create ~seed:33 in
  let d = Guardrails.Deployment.create ~kernel () in
  (* Fault 1: stale LinnOS classifier (devices born aged, model
     trained on young twins). Built by hand, not as a Blk_rig: the
     model trains on other devices than the live ones. *)
  let young =
    Array.init 2 (fun i ->
        Gr_kernel.Ssd.create ~rng:kernel.rng ~profile:Gr_kernel.Ssd.young_profile ~id:(10 + i))
  in
  let devices =
    Array.init 2 (fun i ->
        Gr_kernel.Ssd.create ~rng:kernel.rng ~profile:Gr_kernel.Ssd.aged_profile ~id:i)
  in
  let blk = Gr_kernel.Blk.create ~engine:kernel.engine ~hooks:kernel.hooks ~devices () in
  let model = Gr_policy.Linnos.train ~rng:kernel.rng ~devices:young () in
  Gr_kernel.Policy_slot.install (Gr_kernel.Blk.slot blk) ~name:"linnos"
    (Gr_policy.Linnos.policy model);
  Guardrails.Deployment.forward_hook_arg d ~hook:"blk:io_complete" ~arg:"false_submit" ();
  Guardrails.Deployment.derive_window_avg d ~src:"false_submit" ~dst:"false_submit_rate"
    ~window:(Time_ns.sec 1) ~every:(Time_ns.ms 100);
  Guardrails.Deployment.bind_control_key d ~key:"ml_enabled" (fun v ->
      Gr_policy.Linnos.set_enabled model (v <> 0.));
  ignore
    (Gr_workload.Io_driver.start ~engine:kernel.engine ~rng:kernel.rng ~blk
       ~arrival:(Gr_workload.Arrival.poisson ~rate_per_sec:1000.)
       ~n_devices:2 ~until:(Time_ns.sec 30) ()
      : Gr_workload.Io_driver.t);
  (* Fault 2: drifted quota advisor. *)
  let mm = Gr_kernel.Mm.create ~engine:kernel.engine ~hooks:kernel.hooks ~fast_capacity:256 () in
  let advisor = Gr_policy.Quota_advisor.train ~rng:kernel.rng ~capacity:256 () in
  Gr_policy.Quota_advisor.inject_drift advisor ~scale:4.;
  Guardrails.Deployment.forward_hook_arg d ~hook:"mm:quota" ~arg:"requested" ~key:"quota_req" ();
  let advisor_rng = Rng.fork kernel.rng in
  ignore
    (Gr_sim.Engine.every kernel.engine ~interval:(Time_ns.ms 200) (fun _ ->
         let q =
           Gr_policy.Quota_advisor.propose advisor ~miss_rate:(Rng.float advisor_rng 1.)
             ~occupancy:(Rng.float advisor_rng 1.)
         in
         ignore (Gr_kernel.Mm.advise_quota mm ~requested:q : [ `Applied of int | `Rejected ]))
      : Gr_sim.Engine.handle);
  (* Fault 3: noise-sensitive congestion controller. *)
  let controller = Gr_policy.Cc_controller.train ~rng:kernel.rng () in
  Gr_policy.Cc_controller.inject_sensitivity controller ~scale:100.;
  Props.P2_robustness.instrument_cc d controller ~rng:kernel.rng ~key:"cc_sensitivity"
    ~every:(Time_ns.ms 100);
  (* Fault 4: wild time-slice policy starving interactive tasks. *)
  let sched = Gr_kernel.Sched.create ~engine:kernel.engine ~hooks:kernel.hooks () in
  Guardrails.Deployment.wire_scheduler d sched;
  Gr_kernel.Policy_slot.install (Gr_kernel.Sched.slot sched) ~name:"wild"
    (Gr_policy.Inject.wild_slices ~rng:kernel.rng ~max_ms:400);
  Gr_workload.Taskset.run ~engine:kernel.engine ~rng:kernel.rng ~sched
    ~specs:
      [ Gr_workload.Taskset.interactive ~rate_per_sec:50.;
        Gr_workload.Taskset.batch ~rate_per_sec:0.3 ]
    ~until:(Time_ns.sec 30);
  { kernel; d }

let guardrail_steps =
  [
    ( "low-false-submit (Listing 2)",
      "stale classifier",
      {|guardrail low-false-submit { trigger: { TIMER(0, 1s) } rule: { LOAD(false_submit_rate) <= 0.05 } action: { REPORT("false submits") } }|}
    );
    ( "p3-quota-bounds",
      "drifted advisor",
      Props.P3_output_bounds.source ~name:"p3-quota-bounds" ~hook:"mm:quota" ~key:"quota_req"
        ~lo:0. ~hi:256.
        ~actions:[ {|REPORT("illegal quota", quota_req)|} ]
        () );
    ( "p2-cc-robustness",
      "unstable controller",
      Props.P2_robustness.source ~name:"p2-cc-robustness" ~sensitivity_key:"cc_sensitivity"
        ~bound:10. ~window:(Time_ns.sec 1) ~check_every:(Time_ns.ms 200)
        ~actions:[ {|REPORT("noise sensitive", cc_sensitivity)|} ]
        () );
    ( "p6-no-starvation",
      "wild slice policy",
      Props.P6_fairness.source ~name:"p6-no-starvation" ~max_wait_ms:100. ~min_jain:0.1
        ~check_every:(Time_ns.ms 100)
        ~actions:[ {|REPORT("starvation", sched_max_wait_ms)|} ]
        () );
  ]

let run () =
  Common.section "Ablation D — incremental guardrail deployment";
  let rig = build_faulty_world () in
  let installed = ref [] in
  Printf.printf "%-32s %-24s %-10s %-12s %s\n" "guardrail added" "covers fault" "firing"
    "total checks" "est. total cost";
  List.iter
    (fun (name, fault, src) ->
      let handles = Guardrails.Deployment.install_source_exn rig.d src in
      installed := !installed @ handles;
      (* Run one more simulated second with the enlarged set. *)
      Gr_kernel.Kernel.run_until rig.kernel
        (Time_ns.add (Gr_kernel.Kernel.now rig.kernel) (Time_ns.sec 1));
      let engine = Guardrails.Deployment.engine rig.d in
      let firing =
        List.exists
          (fun h ->
            Guardrails.Engine.monitor_name h = name
            && (Guardrails.Engine.Stats.get engine h).violations > 0)
          !installed
      in
      Printf.printf "%-32s %-24s %-10s %-12d %10.0f ns\n" name fault
        (if firing then "YES" else "not yet")
        (Guardrails.Engine.Stats.total_checks engine)
        (Guardrails.Engine.Stats.total_overhead_ns engine))
    guardrail_steps;
  let covered =
    List.length
      (List.filter
         (fun h ->
           (Guardrails.Engine.Stats.get (Guardrails.Deployment.engine rig.d) h).violations > 0)
         !installed)
  in
  Printf.printf "\nfinal coverage: %d/4 injected faults detected by their guardrails\n" covered;
  print_endline "";
  print_endline "operations report (Engine.pp_report):";
  Format.printf "%a" Gr_runtime.Engine.pp_report (Guardrails.Deployment.engine rig.d)
