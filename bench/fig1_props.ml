(* Figure 1 (left table): the P1-P6 property taxonomy. For every
   property we run the subsystem the paper names for it twice — once
   healthy, once with the documented misbehaviour injected — and
   report whether the guardrail stayed quiet / detected the fault.
   The expected pattern is OK on the healthy column and DETECTED on
   the faulty column for every row. *)

open Gr_util
module Props = Gr_props.Props

let deployment_with_kernel seed =
  let kernel = Gr_kernel.Kernel.create ~seed in
  (kernel, Guardrails.Deployment.create ~kernel ())

let stats_of d h = Guardrails.Engine.Stats.get (Guardrails.Deployment.engine d) h

(* P1: in-distribution inputs, on the LinnOS classifier. The monitored
   feature is the device's most recent service latency (the model's
   strongest input); the envelope comes from the training set. Aging
   the devices moves it far outside. *)
let p1 ~faulty =
  let kernel, d = deployment_with_kernel 101 in
  let devices =
    Array.init 2 (fun i ->
        Gr_kernel.Ssd.create ~rng:kernel.rng ~profile:Gr_kernel.Ssd.young_profile ~id:i)
  in
  let blk = Gr_kernel.Blk.create ~engine:kernel.engine ~hooks:kernel.hooks ~devices () in
  let model = Gr_policy.Linnos.train ~rng:kernel.rng ~devices () in
  Gr_kernel.Policy_slot.install (Gr_kernel.Blk.slot blk) ~name:"linnos"
    (Gr_policy.Linnos.policy model);
  let last_lat =
    Array.map (fun f -> f.(Array.length f - 1)) (Gr_policy.Linnos.training_features model)
  in
  let _lo, hi = Props.P1_in_distribution.envelope last_lat ~quantile:0.9 ~slack:3.0 () in
  Guardrails.Deployment.forward_hook_arg d ~hook:"blk:io_complete" ~arg:"latency_us"
    ~key:"io_latency_us" ();
  let src =
    Props.P1_in_distribution.source ~name:"p1-in-distribution" ~feature_key:"io_latency_us"
      ~lo:0. ~hi ~quantile:0.9 ~window:(Time_ns.ms 500) ~check_every:(Time_ns.ms 100)
      ~actions:[ {|REPORT("inputs drifted", io_latency_us)|} ] ()
  in
  let h = List.hd (Guardrails.Deployment.install_source_exn d src) in
  if faulty then
    Array.iter (fun dev -> Gr_kernel.Ssd.set_profile dev Gr_kernel.Ssd.aged_profile) devices;
  ignore
    (Gr_workload.Io_driver.start ~engine:kernel.engine ~rng:kernel.rng ~blk
       ~arrival:(Gr_workload.Arrival.poisson ~rate_per_sec:1000.)
       ~n_devices:2 ~until:(Time_ns.sec 2) ()
      : Gr_workload.Io_driver.t);
  Gr_kernel.Kernel.run_until kernel (Time_ns.sec 2);
  (stats_of d h).violations

(* P2: robustness of the learned congestion controller to noisy
   measurements. *)
let p2 ~faulty =
  let kernel, d = deployment_with_kernel 102 in
  let controller = Gr_policy.Cc_controller.train ~rng:kernel.rng () in
  if faulty then Gr_policy.Cc_controller.inject_sensitivity controller ~scale:100.;
  Props.P2_robustness.instrument_cc d controller ~rng:kernel.rng ~key:"cc_sensitivity"
    ~every:(Time_ns.ms 50);
  let src =
    Props.P2_robustness.source ~name:"p2-robustness" ~sensitivity_key:"cc_sensitivity" ~bound:10.
      ~window:(Time_ns.ms 500) ~check_every:(Time_ns.ms 100)
      ~actions:[ {|REPORT("model sensitive to noise", cc_sensitivity)|} ] ()
  in
  let h = List.hd (Guardrails.Deployment.install_source_exn d src) in
  Gr_kernel.Kernel.run_until kernel (Time_ns.sec 2);
  (stats_of d h).violations

(* P3: out-of-bounds outputs from the learned memory-quota advisor. *)
let p3 ~faulty =
  let kernel, d = deployment_with_kernel 103 in
  let mm = Gr_kernel.Mm.create ~engine:kernel.engine ~hooks:kernel.hooks ~fast_capacity:256 () in
  let advisor = Gr_policy.Quota_advisor.train ~rng:kernel.rng ~capacity:256 () in
  if faulty then Gr_policy.Quota_advisor.inject_drift advisor ~scale:4.;
  Guardrails.Deployment.forward_hook_arg d ~hook:"mm:quota" ~arg:"requested" ~key:"quota_req" ();
  let src =
    Props.P3_output_bounds.source ~name:"p3-output-bounds" ~hook:"mm:quota" ~key:"quota_req"
      ~lo:0. ~hi:256.
      ~actions:[ {|REPORT("illegal allocation", quota_req)|} ] ()
  in
  let h = List.hd (Guardrails.Deployment.install_source_exn d src) in
  let rng = Rng.fork kernel.rng in
  ignore
    (Gr_sim.Engine.every kernel.engine ~interval:(Time_ns.ms 100) (fun _ ->
         let q =
           Gr_policy.Quota_advisor.propose advisor ~miss_rate:(Rng.float rng 1.)
             ~occupancy:(Rng.float rng 1.)
         in
         ignore (Gr_kernel.Mm.advise_quota mm ~requested:q : [ `Applied of int | `Rejected ]))
      : Gr_sim.Engine.handle);
  Gr_kernel.Kernel.run_until kernel (Time_ns.sec 2);
  (stats_of d h).violations

(* P4: decision quality of learned cache replacement against the
   random-eviction floor. The fault is a hot-set shift that makes the
   model cling to stale keys. *)
let p4 ~faulty =
  let kernel, d = deployment_with_kernel 5 in
  let cache = Gr_kernel.Cache.create ~hooks:kernel.hooks ~capacity:128 in
  let zipf = Gr_workload.Mem_trace.zipfian ~rng:kernel.rng ~n_pages:2048 ~s:1.2 () in
  let trace = Array.init 30_000 (fun _ -> Gr_workload.Mem_trace.next zipf) in
  let model = Gr_policy.Cache_policy.train ~rng:kernel.rng ~hooks:kernel.hooks ~trace () in
  Gr_kernel.Policy_slot.install (Gr_kernel.Cache.slot cache) ~name:"learned-reuse"
    (Gr_policy.Cache_policy.policy model);
  Guardrails.Deployment.forward_hook_arg d ~hook:"cache:access" ~arg:"hit" ~key:"cache_hit" ();
  Props.P4_decision_quality.shadow_cache d ~capacity:128
    ~baseline:(Gr_kernel.Cache.random kernel.rng) ~hit_key:"shadow_hit";
  let src =
    Props.P4_decision_quality.source ~name:"p4-decision-quality" ~policy_key:"cache_hit"
      ~baseline_key:"shadow_hit" ~margin:0.02 ~window:(Time_ns.ms 400)
      ~check_every:(Time_ns.ms 100)
      ~actions:[ {|REPORT("below the random baseline", cache_hit, shadow_hit)|} ] ()
  in
  let h = List.hd (Guardrails.Deployment.install_source_exn d src) in
  ignore
    (Gr_sim.Engine.every kernel.engine ~interval:(Time_ns.us 50) (fun _ ->
         ignore (Gr_kernel.Cache.access cache ~key:(Gr_workload.Mem_trace.next zipf) : bool))
      : Gr_sim.Engine.handle);
  if faulty then
    ignore
      (Gr_sim.Engine.schedule_at kernel.engine (Time_ns.sec 1) (fun _ ->
           Gr_workload.Mem_trace.shift_hot_set zipf ~offset:1024)
        : Gr_sim.Engine.handle);
  Gr_kernel.Kernel.run_until kernel (Time_ns.sec 3);
  (stats_of d h).violations

(* P5: decision overhead. The fault swaps the light classifier for an
   over-parameterised one whose per-decision inference cost blows the
   budget. *)
let p5 ~faulty =
  let kernel, d = deployment_with_kernel 105 in
  let devices =
    Array.init 2 (fun i ->
        Gr_kernel.Ssd.create ~rng:kernel.rng ~profile:Gr_kernel.Ssd.young_profile ~id:i)
  in
  let blk = Gr_kernel.Blk.create ~engine:kernel.engine ~hooks:kernel.hooks ~devices () in
  let model = Gr_policy.Linnos.train ~rng:kernel.rng ~devices () in
  (* Simulated inference cost: MACs x 1ns, with the "deep" variant
     standing in for an unpruned model. *)
  let cost_ns =
    if faulty then 25_000. else float_of_int (Gr_policy.Linnos.inference_flops model)
  in
  let wrapped =
    Props.P5_overhead.wrap_blk_policy d ~key:"inference_ns" ~cost_ns
      (Gr_policy.Linnos.policy model)
  in
  Gr_kernel.Policy_slot.install (Gr_kernel.Blk.slot blk) ~name:"linnos" wrapped;
  let src =
    Props.P5_overhead.source ~name:"p5-overhead" ~cost_key:"inference_ns" ~budget_ns:5_000.
      ~window:(Time_ns.ms 500) ~check_every:(Time_ns.ms 100)
      ~actions:[ {|REPORT("inference over budget", inference_ns)|} ] ()
  in
  let h = List.hd (Guardrails.Deployment.install_source_exn d src) in
  ignore
    (Gr_workload.Io_driver.start ~engine:kernel.engine ~rng:kernel.rng ~blk
       ~arrival:(Gr_workload.Arrival.poisson ~rate_per_sec:1000.)
       ~n_devices:2 ~until:(Time_ns.sec 2) ()
      : Gr_workload.Io_driver.t);
  Gr_kernel.Kernel.run_until kernel (Time_ns.sec 2);
  (stats_of d h).violations

(* P6: fairness/liveness in the scheduler; the fault is the wild-slice
   policy. *)
let p6 ~faulty =
  let kernel, d = deployment_with_kernel 106 in
  let sched = Gr_kernel.Sched.create ~engine:kernel.engine ~hooks:kernel.hooks () in
  Guardrails.Deployment.wire_scheduler d sched;
  if faulty then
    Gr_kernel.Policy_slot.install (Gr_kernel.Sched.slot sched) ~name:"wild"
      (Gr_policy.Inject.wild_slices ~rng:kernel.rng ~max_ms:400);
  (* Load stays under 1 so the healthy (CFS) arm is feasible:
     40/s x 8ms + 0.2/s x 2s ~= 0.72 utilisation. *)
  Gr_workload.Taskset.run ~engine:kernel.engine ~rng:kernel.rng ~sched
    ~specs:
      [ Gr_workload.Taskset.interactive ~rate_per_sec:40.;
        Gr_workload.Taskset.batch ~rate_per_sec:0.2 ]
    ~until:(Time_ns.sec 2);
  let src =
    Props.P6_fairness.source ~name:"p6-fairness" ~max_wait_ms:100. ~min_jain:0.2
      ~check_every:(Time_ns.ms 50)
      ~actions:[ {|REPORT("starvation or unfairness", sched_max_wait_ms, sched_jain)|} ] ()
  in
  let h = List.hd (Guardrails.Deployment.install_source_exn d src) in
  Gr_kernel.Kernel.run_until kernel (Time_ns.sec 2);
  (stats_of d h).violations

let rows =
  [
    ("P1 in-distribution inputs", "LinnOS I/O classifier", "device aging (GC regime shift)", p1);
    ("P2 robustness", "learned congestion control", "unstable model (noise-sensitive)", p2);
    ("P3 out-of-bounds outputs", "memory quota advisor", "drifted regressor (x4 scale)", p3);
    ("P4 decision quality", "learned cache replacement", "hot-set shift", p4);
    ("P5 decision overhead", "LinnOS I/O classifier", "unpruned model (25us inference)", p5);
    ("P6 fairness and liveness", "CPU scheduler", "wild time-slice policy", p6);
  ]

let run () =
  Common.section "Figure 1 (left) — property taxonomy P1-P6: detection matrix";
  Printf.printf "%-28s %-28s %-34s %-10s %s\n" "property" "subsystem" "injected fault" "healthy"
    "faulty";
  List.iter
    (fun (name, subsystem, fault, f) ->
      let healthy = f ~faulty:false in
      let faulty = f ~faulty:true in
      Printf.printf "%-28s %-28s %-34s %-10s %s\n" name subsystem fault
        (if healthy = 0 then "OK" else Printf.sprintf "FLAGGED(%d)" healthy)
        (if faulty > 0 then Printf.sprintf "DETECTED(%d)" faulty else "MISSED"))
    rows
