(* Figure 1 (right table): the A1-A4 action taxonomy. Each action is
   exercised through a compiled guardrail against the subsystem from
   its example column, and we report the observable effect:

   A1 REPORT       - violation records with key snapshots
   A2 REPLACE      - the policy slot switches to its fallback
   A3 RETRAIN      - an asynchronous retrain runs (rate-limited)
   A4 DEPRIORITIZE - the batch class's weight drops, waits recover *)

open Gr_util

let a1_report () =
  let rig = Common.make_fig2_rig ~seed:11 () in
  let src =
    {|
guardrail a1-report {
  trigger: { TIMER(0, 500ms) }
  rule: { LOAD(false_submit_rate) <= 0.05 }
  action: { REPORT("false submits above 5%", false_submit_rate, false_submit) }
}
|}
  in
  ignore
    (Guardrails.Deployment.install_source_exn rig.deployment src : Guardrails.Engine.handle list);
  Gr_kernel.Kernel.run_until rig.kernel Common.run_until;
  let viols = Guardrails.Engine.violations (Guardrails.Deployment.engine rig.deployment) in
  Printf.printf "A1 REPORT: %d violation records logged" (List.length viols);
  (match viols with
  | v :: _ ->
    Format.printf "; first at %a with snapshot [%s]@." Time_ns.pp v.Guardrails.Engine.at
      (String.concat "; "
         (List.map (fun (k, x) -> Printf.sprintf "%s=%.3f" k x) v.Guardrails.Engine.snapshot))
  | [] -> print_newline ());
  (* The model keeps running: REPORT alone does not correct. *)
  Printf.printf "   model still enabled (A1 does not mitigate): %b\n"
    (Gr_policy.Linnos.enabled rig.model)

let a2_replace () =
  let rig = Common.make_fig2_rig ~seed:12 () in
  (* REPLACE swaps the block-layer slot to its hedge fallback via the
     policy registry. *)
  Gr_kernel.Kernel.register_policy rig.kernel ~name:"blk-submission"
    ~replace:(fun () -> Gr_kernel.Policy_slot.use_fallback (Gr_kernel.Blk.slot rig.blk))
    ~restore:(fun () -> Gr_kernel.Policy_slot.restore (Gr_kernel.Blk.slot rig.blk))
    ();
  let src =
    {|
guardrail a2-replace {
  trigger: { TIMER(0, 500ms) }
  rule: { LOAD(false_submit_rate) <= 0.05 }
  action: { REPLACE("blk-submission") }
}
|}
  in
  ignore
    (Guardrails.Deployment.install_source_exn rig.deployment src : Guardrails.Engine.handle list);
  Gr_kernel.Kernel.run_until rig.kernel Common.run_until;
  let slot = Gr_kernel.Blk.slot rig.blk in
  Printf.printf "A2 REPLACE: slot %s now runs %S (on fallback: %b); transitions: %s\n"
    (Gr_kernel.Policy_slot.name slot)
    (Gr_kernel.Policy_slot.current_name slot)
    (Gr_kernel.Policy_slot.on_fallback slot)
    (String.concat ", "
       (List.map (fun (a, b) -> a ^ "->" ^ b) (Gr_kernel.Policy_slot.transitions slot)))

let a3_retrain () =
  let rig = Common.make_fig2_rig ~seed:13 () in
  let src =
    {|
guardrail a3-retrain {
  trigger: { TIMER(0, 500ms) }
  rule: { LOAD(false_submit_rate) <= 0.05 }
  action: { RETRAIN("linnos") }
}
|}
  in
  ignore
    (Guardrails.Deployment.install_source_exn rig.deployment src : Guardrails.Engine.handle list);
  let stale_acc = ref 0. in
  ignore
    (Gr_sim.Engine.schedule_at rig.kernel.engine (Time_ns.add Common.aging_at (Time_ns.ms 1))
       (fun _ -> stale_acc := Gr_policy.Linnos.holdout_accuracy rig.model)
      : Gr_sim.Engine.handle);
  Gr_kernel.Kernel.run_until rig.kernel Common.run_until;
  Printf.printf
    "A3 RETRAIN: %d retrain(s) ran (rate limited to 1/s); accuracy on aged regime %.1f%% -> %.1f%%\n"
    (Gr_policy.Linnos.retrain_count rig.model)
    (100. *. !stale_acc)
    (100. *. Gr_policy.Linnos.holdout_accuracy rig.model)

let a4_deprioritize () =
  let kernel = Gr_kernel.Kernel.create ~seed:14 in
  let sched = Gr_kernel.Sched.create ~engine:kernel.engine ~hooks:kernel.hooks () in
  let d = Guardrails.Deployment.create ~kernel () in
  Guardrails.Deployment.wire_scheduler d sched;
  Gr_kernel.Policy_slot.install (Gr_kernel.Sched.slot sched) ~name:"learned-slice"
    (Gr_policy.Slice_policy.policy (Gr_policy.Slice_policy.train ~rng:kernel.rng ()));
  let src =
    {|
guardrail a4-deprioritize {
  trigger: { TIMER(0, 50ms) }
  rule: { LOAD(sched_max_wait_ms) <= 100 }
  action: { DEPRIORITIZE("batch", 64) }
}
|}
  in
  ignore (Guardrails.Deployment.install_source_exn d src : Guardrails.Engine.handle list);
  Gr_workload.Taskset.run ~engine:kernel.engine ~rng:kernel.rng ~sched
    ~specs:[ Gr_workload.Taskset.interactive ~rate_per_sec:40. ]
    ~until:(Time_ns.sec 3);
  ignore
    (Gr_sim.Engine.schedule_at kernel.engine (Time_ns.sec 1) (fun _ ->
         for i = 1 to 24 do
           ignore
             (Gr_kernel.Sched.spawn sched
                ~name:(Printf.sprintf "batch-%d" i)
                ~cls:"batch" ~demand:(Time_ns.sec 2) ()
               : Gr_kernel.Sched.task)
         done)
      : Gr_sim.Engine.handle);
  Gr_kernel.Kernel.run_until kernel (Time_ns.sec 3);
  let batch_weights =
    List.filter_map
      (fun (t : Gr_kernel.Sched.task) -> if t.cls = "batch" then Some t.weight else None)
      (Gr_kernel.Sched.tasks sched)
  in
  let deprioritized = List.length (List.filter (fun w -> w = 64) batch_weights) in
  Printf.printf "A4 DEPRIORITIZE: %d/%d batch tasks dropped to weight 64; max wait now %.0fms\n"
    deprioritized (List.length batch_weights)
    (Gr_kernel.Sched.max_wait_ms sched)

(* A4's drastic form: if starvation persists after deprioritisation,
   a second (escalation) guardrail kills the batch class — the OOM-
   killer analogy the paper draws. *)
let a4_kill_escalation () =
  let kernel = Gr_kernel.Kernel.create ~seed:15 in
  let sched = Gr_kernel.Sched.create ~engine:kernel.engine ~hooks:kernel.hooks () in
  let d = Guardrails.Deployment.create ~kernel () in
  Guardrails.Deployment.wire_scheduler d sched;
  (* A slice policy that keeps starving even at low weights: fixed
     long slices, so deprioritisation alone cannot restore liveness. *)
  Gr_kernel.Policy_slot.install (Gr_kernel.Sched.slot sched) ~name:"long-slices"
    {
      Gr_kernel.Sched.policy_name = "long-slices";
      slice = (fun ~nr_runnable:_ ~task_weight:_ ~task_received_ms:_ -> Time_ns.ms 300);
    };
  let src =
    {|
guardrail a4-deprioritize-first {
  trigger: { TIMER(0, 50ms) }
  rule: { LOAD(sched_max_wait_ms) <= 100 }
  action: { DEPRIORITIZE("batch", 64) }
}
guardrail a4-kill-escalation {
  trigger: { TIMER(0, 100ms) }
  rule: { MIN(sched_max_wait_ms, 500ms) <= 100 || COUNT(sched_max_wait_ms, 500ms) < 10 }
  action: { REPORT("persistent starvation; killing batch", sched_max_wait_ms); KILL("batch") }
}
|}
  in
  ignore (Guardrails.Deployment.install_source_exn d src : Guardrails.Engine.handle list);
  for i = 1 to 12 do
    ignore
      (Gr_kernel.Sched.spawn sched
         ~name:(Printf.sprintf "batch-%d" i)
         ~cls:"batch" ~demand:(Time_ns.sec 5) ()
        : Gr_kernel.Sched.task)
  done;
  ignore
    (Gr_kernel.Sched.spawn sched ~name:"victim" ~cls:"interactive" ~demand:(Time_ns.sec 5) ()
      : Gr_kernel.Sched.task);
  Gr_kernel.Kernel.run_until kernel (Time_ns.sec 3);
  let killed =
    List.length
      (List.filter
         (fun (t : Gr_kernel.Sched.task) -> t.state = Gr_kernel.Sched.Killed)
         (Gr_kernel.Sched.tasks sched))
  in
  Printf.printf
    "A4 KILL (escalation): starvation persisted past the deprioritise step; %d batch tasks \
     killed; max wait now %.0fms\n"
    killed
    (Gr_kernel.Sched.max_wait_ms sched)

let run () =
  Common.section "Figure 1 (right) — action taxonomy A1-A4";
  a1_report ();
  a2_replace ();
  a3_retrain ();
  a4_deprioritize ();
  a4_kill_escalation ()
