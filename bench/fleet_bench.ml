(* Ablation H — fleet-wide guardrails over merged shards.

   Four nodes on one fleet clock each feed their own latency shard;
   a fleet-wide QUANTILE guardrail on the control engine reads the
   merged view. At t=2s one node's latency regime degrades, dragging
   the fleet p99 over the bound: the guardrail must fire from the
   incrementally merged state, and that state must agree exactly with
   the naive concat-and-scan oracle at every checkpoint (QUANTILE is
   an exact aggregate — no float tolerance). The REPLACE that follows
   is canaried to the degraded node only. *)

open Gr_util
module Fleet = Guardrails.Fleet
module D = Guardrails.Deployment
module Store = Guardrails.Store

let n_nodes = 4
let degraded_node = 2
let degrade_at = Time_ns.sec 2
let run_until = Time_ns.sec 6
let window_ns = float_of_int (Time_ns.sec 2)

let spec =
  {|
guardrail fleet-tail-latency {
  trigger: { TIMER(0, 100ms) },
  rule: { COUNT(io_lat_us, 2s) == 0 || QUANTILE(io_lat_us, 0.99, 2s) <= 800 },
  action: {
    REPORT("fleet p99 over bound", io_lat_us)
    REPLACE("lat_policy")
  }
}
|}

(* Returns the verdict and every trace channel (control, then nodes). *)
let run_once ~domains =
  let fleet =
    Fleet.create ~nodes:n_nodes ~seed:7 ~tracing:true ~domains ~engine:!Common.engine ()
  in
  let replaced = Array.make n_nodes 0 in
  Array.iteri
    (fun id node ->
      let kernel = D.kernel node in
      let rng = kernel.Gr_kernel.Kernel.rng in
      let degraded = ref false in
      if id = degraded_node then
        ignore
          (Gr_sim.Engine.schedule_at kernel.Gr_kernel.Kernel.engine degrade_at (fun _ ->
               degraded := true)
            : Gr_sim.Engine.handle);
      D.derive_periodic node ~key:"io_lat_us" ~every:(Time_ns.ms 5) (fun () ->
          let base = Rng.lognormal rng ~mu:5.0 ~sigma:0.4 in
          if !degraded then base *. 10. else base);
      Gr_kernel.Kernel.register_policy kernel ~name:"lat_policy"
        ~replace:(fun () -> replaced.(id) <- replaced.(id) + 1)
        ~restore:(fun () -> ())
        ())
    (Fleet.nodes fleet);
  Fleet.set_canary fleet ~policy:"lat_policy" [ degraded_node ];
  ignore (Fleet.install_source_exn fleet spec : Guardrails.Engine.handle list);
  (* Checkpoints: at every 500ms of fleet time, compare the merged
     incremental QUANTILE against the naive concat-and-scan oracle. *)
  let store = Fleet.store fleet in
  let checkpoints = ref 0 and mismatches = ref 0 and incremental_hits = ref 0 in
  ignore
    (Gr_sim.Engine.every (Fleet.sim fleet) ~interval:(Time_ns.ms 500) ~stop:run_until
       (fun _ ->
         let inc =
           Store.aggregate_result store ~key:"io_lat_us" ~fn:Gr_dsl.Ast.Quantile ~window_ns
             ~param:0.99
         in
         Store.set_force_naive store true;
         let naive =
           Store.aggregate store ~key:"io_lat_us" ~fn:Gr_dsl.Ast.Quantile ~window_ns
             ~param:0.99
         in
         Store.set_force_naive store false;
         incr checkpoints;
         if inc.Store.incremental then incr incremental_hits;
         let same =
           inc.Store.value = naive || (Float.is_nan inc.Store.value && Float.is_nan naive)
         in
         if not same then incr mismatches)
      : Gr_sim.Engine.handle);
  Fleet.run_until fleet run_until;
  let violations = Fleet.violations fleet in
  let first_fire =
    match violations with [] -> None | v :: _ -> Some v.Guardrails.Engine.at
  in
  Printf.printf "  nodes                        %d (node %d degrades 10x at t=%.0fs)\n"
    n_nodes degraded_node (Time_ns.to_float_sec degrade_at);
  Printf.printf "  merged-vs-naive checkpoints  %d (%d incremental, %d mismatches)\n"
    !checkpoints !incremental_hits !mismatches;
  (match first_fire with
  | Some at ->
    Printf.printf "  fleet p99 guardrail fired    t=%.2fs (%d violations total)\n"
      (Time_ns.to_float_sec at) (List.length violations)
  | None -> Printf.printf "  fleet p99 guardrail fired    never\n");
  Printf.printf "  canaried REPLACE deliveries  %s\n"
    (String.concat ", "
       (Array.to_list (Array.mapi (fun id n -> Printf.sprintf "node%d=%d" id n) replaced)));
  let ok =
    !mismatches = 0 && first_fire <> None
    && Array.for_all (fun n -> n = 0)
         (Array.of_list
            (List.filteri (fun id _ -> id <> degraded_node) (Array.to_list replaced)))
    && replaced.(degraded_node) > 0
  in
  Printf.printf "  verdict                      %s\n"
    (if ok then "OK: fired from merged state == naive oracle; canary confined"
     else "MISMATCH");
  let traces =
    List.map Guardrails.Trace_export.chrome_string (Fleet.tracers fleet)
  in
  (ok, traces)

let run ~json:_ =
  Common.section "Ablation H — fleet-wide aggregation (4 nodes, merged QUANTILE)";
  let one_ok, one_traces = run_once ~domains:1 in
  (* Same rig with node shards on two domains: the verdict and every
     trace channel must match the one-domain run byte for byte. *)
  Common.section "Ablation H' — same rig on two domains (--domains 2)";
  let two_ok, two_traces = run_once ~domains:2 in
  let same_traces = one_traces = two_traces in
  Printf.printf "  traces byte-identical        %s\n" (if same_traces then "yes" else "NO");
  if not (one_ok && two_ok && same_traces) then exit 1
