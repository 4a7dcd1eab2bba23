(* End-to-end integration: the paper's Figure 2 narrative as
   assertions, so regressions anywhere in the stack (device model,
   classifier, DSL, compiler, runtime, actions) break the build. *)

open Gr_util

let check_bool = Alcotest.(check bool)

let listing2 =
  {|
guardrail low-false-submit {
  trigger: { TIMER(start_time, 1e9) },
  rule: { LOAD(false_submit_rate) <= 0.05 },
  action: {
    REPORT("false submits", false_submit_rate)
    SAVE(ml_enabled, false)
  }
}
|}

type arm = {
  samples : Gr_workload.Io_driver.sample list;
  triggered_at : Time_ns.t option;
  model_enabled : bool;
}

let templates = Gr_policy.Linnos.Templates.create ()

(* A compressed Figure 2: aging at 1s, 4s run. Both arms build the
   same rig, so the second copies the first's model. *)
let run_arm ~with_guardrail =
  let kernel = Gr_kernel.Kernel.create ~seed:7 in
  let { Gr_policy.Blk_rig.devices; blk; model } =
    Gr_policy.Blk_rig.create ~templates kernel ~devices:4
  in
  let d = Guardrails.Deployment.create ~kernel () in
  Guardrails.Deployment.forward_hook_arg d ~hook:"blk:io_complete" ~arg:"false_submit" ();
  Guardrails.Deployment.derive_window_avg d ~src:"false_submit" ~dst:"false_submit_rate"
    ~window:(Time_ns.sec 1) ~every:(Time_ns.ms 100);
  Guardrails.Deployment.bind_control_key d ~key:"ml_enabled" (fun v ->
      Gr_policy.Linnos.set_enabled model (v <> 0.));
  if with_guardrail then
    ignore (Guardrails.Deployment.install_source_exn d listing2 : Gr_runtime.Engine.handle list);
  let driver =
    Gr_workload.Io_driver.start ~engine:kernel.engine ~rng:kernel.rng ~blk
      ~arrival:(Gr_workload.Arrival.poisson ~rate_per_sec:1500.)
      ~n_devices:4 ~zipf_s:0.5 ~until:(Time_ns.sec 4) ()
  in
  ignore
    (Gr_sim.Engine.schedule_at kernel.engine (Time_ns.sec 1) (fun _ ->
         Array.iter
           (fun dev -> Gr_kernel.Ssd.set_profile dev Gr_kernel.Ssd.aged_profile)
           devices)
      : Gr_sim.Engine.handle);
  Gr_kernel.Kernel.run_until kernel (Time_ns.sec 5);
  let triggered_at =
    match Guardrails.Engine.violations (Guardrails.Deployment.engine d) with
    | [] -> None
    | v :: _ -> Some v.Guardrails.Engine.at
  in
  {
    samples = Gr_workload.Io_driver.samples driver;
    triggered_at;
    model_enabled = Gr_policy.Linnos.enabled model;
  }

let mean_between ~lo ~hi samples =
  let xs =
    List.filter_map
      (fun (s : Gr_workload.Io_driver.sample) ->
        if s.at >= lo && s.at < hi then Some s.latency_us else None)
      samples
  in
  Stats.mean (Array.of_list xs)

let test_fig2_narrative () =
  let plain = run_arm ~with_guardrail:false in
  let guarded = run_arm ~with_guardrail:true in
  (* 1. The guardrail triggered after the aging event, within a
        couple of check periods. *)
  (match guarded.triggered_at with
  | None -> Alcotest.fail "guardrail never triggered"
  | Some at ->
    check_bool "triggered after aging" true (at >= Time_ns.sec 1);
    check_bool "triggered within 2.5s of aging" true (at <= Time_ns.sec 1 + Time_ns.ms 2500));
  check_bool "mitigation disabled the model" true (not guarded.model_enabled);
  check_bool "unguarded model still enabled" true plain.model_enabled;
  (* 2. Identical behaviour before the trigger (same seed). *)
  let pre_plain = mean_between ~lo:Time_ns.zero ~hi:(Time_ns.sec 1) plain.samples in
  let pre_guard = mean_between ~lo:Time_ns.zero ~hi:(Time_ns.sec 1) guarded.samples in
  check_bool "arms identical pre-drift" true (Float.abs (pre_plain -. pre_guard) < 1e-6);
  (* 3. The stale model degrades latency. *)
  let stale = mean_between ~lo:(Time_ns.sec 1) ~hi:(Time_ns.sec 2) plain.samples in
  check_bool "stale model much worse than healthy" true (stale > 2. *. pre_plain);
  (* 4. After mitigation, the guarded arm beats the unguarded arm —
        the paper's Figure 2 claim. *)
  let post_plain = mean_between ~lo:(Time_ns.sec 3) ~hi:(Time_ns.sec 4) plain.samples in
  let post_guard = mean_between ~lo:(Time_ns.sec 3) ~hi:(Time_ns.sec 4) guarded.samples in
  check_bool
    (Printf.sprintf "guarded (%.0fus) beats unguarded (%.0fus) post-mitigation" post_guard
       post_plain)
    true
    (post_guard < 0.8 *. post_plain);
  (* 5. And recovers to within ~2.5x of the healthy phase's latency
        (the aged devices are intrinsically slower, so parity with
        the young phase is not expected). *)
  check_bool "guarded arm recovers" true (post_guard < 4. *. pre_guard)

let test_fig2_false_submit_reduction () =
  let plain = run_arm ~with_guardrail:false in
  let guarded = run_arm ~with_guardrail:true in
  let count samples =
    List.length (List.filter (fun s -> s.Gr_workload.Io_driver.false_submit) samples)
  in
  check_bool "guardrail cuts false submits by >2x" true
    (count guarded.samples * 2 < count plain.samples)

let suite =
  [
    ( "integration.fig2",
      [
        Alcotest.test_case "figure 2 narrative" `Slow test_fig2_narrative;
        Alcotest.test_case "false submits reduced" `Slow test_fig2_false_submit_reduction;
      ] );
  ]
