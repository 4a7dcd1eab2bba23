(* Tiered memory: the P1 in-distribution guardrail and the A3
   RETRAIN action.

   A learned placement policy decides which slow-tier pages to
   promote into a small fast tier, from access-behaviour features
   (access count, inter-access gap, occupancy). At t=1s the workload
   turns scan-heavy — the paper's own cited failure mode for learned
   data placement ("may perform poorly if the workload ... has random
   access pattern"). Scans have inter-access gaps an order of
   magnitude above anything in the zipfian training trace, so the
   model's gap input drifts out of its training envelope; the P1
   guardrail detects it and triggers an asynchronous retrain on the
   recent trace.

   Run with: dune exec examples/memory_tiering.exe *)

open Gr_util

let n_pages = 4096
let access_gap = Time_ns.us 20

let () =
  let kernel = Guardrails.Kernel.create ~seed:23 in
  let mm =
    Guardrails.Mm.create ~engine:kernel.engine ~hooks:kernel.hooks ~fast_capacity:256 ()
  in

  (* Train on a zipfian trace over the initial hot set. *)
  let trace_gen = Gr_workload.Mem_trace.zipfian ~rng:kernel.rng ~n_pages () in
  let training_trace = Array.init 20_000 (fun _ -> Gr_workload.Mem_trace.next trace_gen) in
  (* mean_gap_ms matches the live access cadence (one access per
     20us), so offline and online gap features share a scale. *)
  let model =
    Gr_policy.Tiering.train ~rng:kernel.rng ~trace:training_trace ~mean_gap_ms:0.02 ()
  in

  (* Keep the recent access history so RETRAIN has fresh data. *)
  let recent = Ring.create ~capacity:20_000 in
  let d = Guardrails.Deployment.create ~kernel () in

  Guardrails.Policy_slot.install (Guardrails.Mm.slot mm) ~name:"learned-tiering"
    (Gr_policy.Tiering.policy model);
  (* Instrument the model's gap input over all accesses — the same
     population the training envelope was computed from. *)
  let last_access = Hashtbl.create 4096 in
  let observe_gap page =
    let now_ms = Time_ns.to_float_ms (Guardrails.Kernel.now kernel) in
    (match Hashtbl.find_opt last_access page with
    | Some prev -> Guardrails.Deployment.save d "tier_gap_ms" (now_ms -. prev)
    | None -> ());
    Hashtbl.replace last_access page now_ms
  in
  Guardrails.Kernel.register_policy kernel ~name:"tiering"
    ~replace:(fun () -> Guardrails.Policy_slot.use_fallback (Guardrails.Mm.slot mm))
    ~restore:(fun () -> Guardrails.Policy_slot.restore (Guardrails.Mm.slot mm))
    ~retrain:(fun () ->
      let trace = Array.of_list (Ring.to_list recent) in
      if Array.length trace > 1000 then begin
        Gr_policy.Tiering.retrain model ~trace;
        Format.printf "t=%a: model retrained on %d recent accesses@." Time_ns.pp
          (Guardrails.Kernel.now kernel) (Array.length trace)
      end)
    ();

  (* P1: the live median inter-access gap must stay inside the
     training envelope (median +/- 2 IQR of the training gaps). *)
  let gaps =
    Array.of_list
      (List.filter_map
         (fun f -> if f.(1) < 1e8 then Some f.(1) else None)
         (Array.to_list (Gr_policy.Tiering.training_features model)))
  in
  let lo, hi = Gr_props.Props.P1_in_distribution.envelope gaps ~slack:2.0 () in
  Printf.printf "training gap envelope: [%.2f, %.2f] ms\n" (Float.max 0. lo) hi;
  let p1 =
    Gr_props.Props.P1_in_distribution.source ~name:"inputs-in-distribution"
      ~feature_key:"tier_gap_ms" ~lo:(Float.max 0. lo) ~hi ~window:(Time_ns.ms 200)
      ~check_every:(Time_ns.ms 100)
      ~actions:
        [ {|REPORT("placement inputs drifted out of training distribution", tier_gap_ms)|};
          {|RETRAIN("tiering")|} ]
      ()
  in
  ignore (Guardrails.Deployment.install_source_exn d p1 : Guardrails.Engine.handle list);

  (* Drive accesses; the workload turns scan-heavy at t=1s. *)
  let current = ref trace_gen in
  ignore
    (Guardrails.Sim.every kernel.engine ~interval:access_gap (fun _ ->
         let page = Gr_workload.Mem_trace.next !current in
         Ring.push recent page;
         observe_gap page;
         ignore (Guardrails.Mm.access mm ~page : Time_ns.t))
      : Guardrails.Sim.handle);
  let window_hits = ref 0 and window_accesses = ref 0 in
  let last_hits = ref 0 and last_accesses = ref 0 in
  let hit_rates = ref [] in
  ignore
    (Guardrails.Sim.every kernel.engine ~interval:(Time_ns.ms 250) (fun e ->
         let h = Guardrails.Mm.fast_hits mm and a = Guardrails.Mm.accesses mm in
         window_hits := h - !last_hits;
         window_accesses := a - !last_accesses;
         last_hits := h;
         last_accesses := a;
         let rate =
           if !window_accesses = 0 then 0.
           else float_of_int !window_hits /. float_of_int !window_accesses
         in
         hit_rates := (Gr_sim.Engine.now e, rate) :: !hit_rates)
      : Guardrails.Sim.handle);
  ignore
    (Guardrails.Sim.schedule_at kernel.engine (Time_ns.sec 1) (fun _ ->
         print_endline "t=1s: workload turns scan-heavy (70% cyclic scan)";
         current :=
           Gr_workload.Mem_trace.mixed ~rng:kernel.rng ~scan_fraction:0.7
             trace_gen
             (Gr_workload.Mem_trace.scan ~n_pages))
      : Guardrails.Sim.handle);

  Guardrails.Kernel.run_until kernel (Time_ns.sec 3);

  (match Guardrails.Engine.violations (Guardrails.Deployment.engine d) with
  | [] -> print_endline "P1 never fired"
  | v :: _ as all ->
    Format.printf "P1 fired %d time(s), first at %a@." (List.length all) Time_ns.pp
      v.Guardrails.Engine.at);
  Printf.printf "retrains: %d\n" (Gr_policy.Tiering.retrain_count model);
  print_endline "fast-tier hit rate (250ms windows):";
  List.iter
    (fun (at, rate) -> Format.printf "  %a  %5.1f%%@." Time_ns.pp at (100. *. rate))
    (List.rev !hit_rates)
