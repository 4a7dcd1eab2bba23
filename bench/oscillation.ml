(* Ablation C — guardrail feedback loops (§6).

   "Deploying multiple guardrails in the kernel — each monitoring a
   different property — can create feedback loops, where preventing
   one violation triggers another, causing the system to oscillate
   between violation states."

   We build the canonical instance: a performance guardrail that
   enables an aggressive mode when quality is low, and an overhead
   guardrail that disables it when cost is high — against a little
   plant where aggressive mode raises both quality and cost. The two
   monitors flip the shared control key forever.

   Shown: (a) the compiler's static interference analysis warns about
   the cycle at deployment time; (b) the runtime's oscillation
   detector flags both monitors; (c) a per-monitor action cooldown
   damps the flapping. *)

open Gr_util

let spec =
  {|
// Violated when quality is low while aggressive mode is off; the
// corrective action turns aggressive mode on.
guardrail quality-floor {
  trigger: { TIMER(0, 20ms) }
  rule: { LOAD(quality) >= 0.5 || LOAD(aggressive) == 1 }
  action: { SAVE(aggressive, 1) }
}
// Violated when cost is high while aggressive mode is on; the
// corrective action turns aggressive mode off. Each guardrail undoes
// the other's correction through the plant.
guardrail overhead-ceiling {
  trigger: { TIMER(0, 20ms) }
  rule: { LOAD(cost) <= 0.5 || LOAD(aggressive) == 0 }
  action: { SAVE(aggressive, 0) }
}
|}

(* The plant: aggressive mode buys quality at a cost; both lag the
   control a little so the loop is visible on the timers. *)
let install_plant kernel d =
  ignore
    (Gr_sim.Engine.every kernel.Gr_kernel.Kernel.engine ~interval:(Time_ns.ms 5) (fun _ ->
         let aggressive =
           Gr_runtime.Feature_store.load (Guardrails.Deployment.store d) "aggressive" <> 0.
         in
         Guardrails.Deployment.save d "quality" (if aggressive then 0.9 else 0.2);
         Guardrails.Deployment.save d "cost" (if aggressive then 0.9 else 0.1))
      : Gr_sim.Engine.handle)

let run_arm ?(auto_damp = false) ~cooldown () =
  let kernel = Gr_kernel.Kernel.create ~seed:5 in
  let config = { Gr_runtime.Engine.default_config with cooldown; auto_damp } in
  let d = Guardrails.Deployment.create ~kernel ~config () in
  install_plant kernel d;
  Guardrails.Deployment.save d "aggressive" 0.;
  let handles = Guardrails.Deployment.install_source_exn d spec in
  let cycles = Guardrails.Deployment.feedback_cycles d in
  Gr_kernel.Kernel.run_until kernel (Time_ns.sec 2);
  let firings =
    List.fold_left
      (fun acc h ->
        acc + (Guardrails.Engine.Stats.get (Guardrails.Deployment.engine d) h).action_firings)
      0 handles
  in
  let oscillating = Guardrails.Engine.oscillating_monitors (Guardrails.Deployment.engine d) in
  (cycles, firings, oscillating)

let run () =
  Common.section "Ablation C — feedback loops between guardrails";
  let cycles, firings, oscillating = run_arm ~cooldown:Time_ns.zero () in
  print_endline "static analysis at deployment:";
  (match cycles with
  | [] -> print_endline "  no cycles found (unexpected)"
  | cs ->
    List.iter
      (fun c -> Printf.printf "  FEEDBACK LOOP warning: %s\n" (String.concat " -> " (c @ [ List.hd c ])))
      cs);
  print_endline "";
  Printf.printf "no cooldown:   %4d action firings in 2s; runtime flags oscillation in: %s\n"
    firings
    (if oscillating = [] then "(none)" else String.concat ", " oscillating);
  let _, firings_cd, oscillating_cd = run_arm ~cooldown:(Time_ns.ms 500) () in
  Printf.printf "500ms cooldown: %3d action firings in 2s; runtime flags oscillation in: %s\n"
    firings_cd
    (if oscillating_cd = [] then "(none)" else String.concat ", " oscillating_cd);
  let _, firings_damped, oscillating_damped = run_arm ~auto_damp:true ~cooldown:Time_ns.zero () in
  Printf.printf
    "auto-damp:      %3d action firings in 2s (cooldown doubles per alert); flagged: %s\n"
    firings_damped
    (if oscillating_damped = [] then "(none)" else String.concat ", " oscillating_damped)
