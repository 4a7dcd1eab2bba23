(* Ablation F — how many guardrails can a kernel afford?

   §3.3's incremental-deployment story implies fleets of monitors.
   This sweep installs N copies of a Listing 2-sized TIMER monitor
   (each over its own keys, 100ms interval) against the Figure 2
   workload and reports total checks, the engine's estimated checking
   work, and the host wall-clock per simulated second — the knee, if
   any, is where monitor dispatch would start to matter. Host
   seconds per simulated second (host ns over simulated ns) are the
   median of Common.runs runs on freshly built rigs, with min and
   max; building the rig is not timed. *)

open Gr_util

let monitor_source i =
  Printf.sprintf
    {|guardrail scale_%d { trigger: { TIMER(0, 100ms) } rule: { AVG(key_%d, 1s) <= 1000 } action: { REPORT("over") } }|}
    i i

let run_with ~monitors =
  let deployment, per_sim_s =
    Common.measure ~per:(float_of_int Common.run_until) (fun () ->
      let rig = Common.make_fig2_rig ~seed:7 () in
      (* Each monitor watches its own key, fed by the shared I/O stream. *)
      for i = 0 to monitors - 1 do
        Guardrails.Deployment.forward_hook_arg rig.deployment ~hook:"blk:io_complete"
          ~arg:"latency_us"
          ~key:(Printf.sprintf "key_%d" i)
          ();
        ignore
          (Guardrails.Deployment.install_source_exn rig.deployment (monitor_source i)
            : Guardrails.Engine.handle list)
      done;
      fun () ->
        Gr_kernel.Kernel.run_until rig.kernel Common.run_until;
        rig.deployment)
  in
  let engine = Guardrails.Deployment.engine deployment in
  ( Guardrails.Engine.Stats.total_checks engine,
    Guardrails.Engine.Stats.total_overhead_ns engine,
    per_sim_s,
    Common.compact_monitors_json deployment )

let monitor_counts () = if !Common.smoke then [ 1; 10 ] else [ 1; 10; 50; 200; 1000 ]

(* Fleet sweep: the same Listing 2-sized monitors, but fleet-wide —
   installed on the control engine, each aggregating the merged view
   of every node's shard of its key. Each node feeds all keys at a
   fixed cadence, so checking work grows with monitors while the
   per-check merge fans out over nodes. *)

let fleet_run_until = Time_ns.sec 3

let prepare_fleet ~nodes ~monitors ~domains () =
  let fleet = Guardrails.Fleet.create ~nodes ~seed:7 ~domains () in
  Array.iter
    (fun node ->
      let rng = (Guardrails.Deployment.kernel node).Gr_kernel.Kernel.rng in
      for i = 0 to monitors - 1 do
        Guardrails.Deployment.derive_periodic node
          ~key:(Printf.sprintf "key_%d" i)
          ~every:(Time_ns.ms 10)
          (fun () -> Rng.float rng 100.)
      done)
    (Guardrails.Fleet.nodes fleet);
  for i = 0 to monitors - 1 do
    ignore
      (Guardrails.Fleet.install_source_exn fleet (monitor_source i) : Guardrails.Engine.handle list)
  done;
  fun () ->
    Guardrails.Fleet.run_until fleet fleet_run_until;
    fleet

(* One (nodes, monitors) point at each of [domains] (the first is 1).
   Its rows are timed in alternation: round [r] runs every row once,
   starting [r] rows further along, so host drift lands on every row
   alike. A row's wall speedup is the median, min and max over rounds
   of the one-domain run's host time over its own in the same round;
   the one-domain row's is exactly 1. *)
let run_fleet_point ~nodes ~monitors domains =
  let domains = Array.of_list domains in
  let k = Array.length domains in
  let fleets = Array.make k None and xs = Array.make_matrix k Common.runs 0. in
  for r = 0 to Common.runs - 1 do
    for j = 0 to k - 1 do
      let i = (j + r) mod k in
      let fleet, dt =
        Common.time_once ~per:(float_of_int fleet_run_until)
          (prepare_fleet ~nodes ~monitors ~domains:domains.(i))
      in
      fleets.(i) <- Some fleet;
      xs.(i).(r) <- dt
    done
  done;
  List.init k (fun i ->
      let fleet = Option.get fleets.(i) in
      let engine = Guardrails.Fleet.engine fleet in
      let speedup = Common.timing_of (Array.init Common.runs (fun r -> xs.(0).(r) /. xs.(i).(r))) in
      ( nodes,
        monitors,
        domains.(i),
        Guardrails.Engine.Stats.total_checks engine,
        Guardrails.Engine.Stats.total_overhead_ns engine,
        Common.timing_of xs.(i),
        speedup,
        Common.compact_monitors_json (Guardrails.Fleet.control fleet) ))

(* The sweep is (nodes, monitors) points, each with its domain counts:
   a one-domain grid, plus a wide-fleet grid (up to 64 nodes) that
   runs the epoch-barrier runtime at every domain count. Speedup on a
   multi-core host comes from the node phases running concurrently;
   Common.host_cores stamps the ceiling. *)
let fleet_points () =
  if !Common.smoke then [ (1, 1, [ 1 ]); (2, 10, [ 1; 2 ]) ]
  else
    let sequential =
      List.concat_map (fun n -> List.map (fun m -> (n, m, [ 1 ])) [ 1; 10; 50 ]) [ 1; 2; 4; 8 ]
    in
    let parallel = List.map (fun (n, m) -> (n, m, [ 1; 2; 4; 8 ])) [ (16, 10); (64, 10); (64, 50) ] in
    sequential @ parallel

let run ~json =
  if not json then begin
    Common.section "Ablation F — monitor-count scalability";
    Printf.printf "  %-10s %-12s %-18s %s\n" "monitors" "checks" "est. check work"
      "host s/sim s [min, max]"
  end;
  let rows =
    List.map
      (fun n ->
        let checks, overhead, per_sim_s, monitors = run_with ~monitors:n in
        if not json then
          Printf.printf "  %-10d %-12d %12.0f ns    %s\n" n checks overhead
            (Common.timing_str "%.4g" per_sim_s);
        (n, checks, overhead, per_sim_s, monitors))
      (monitor_counts ())
  in
  if not json then begin
    Common.section
      (Printf.sprintf "Ablation F' — fleet scalability (nodes x monitors x domains, %d core(s))"
         Common.host_cores);
    Printf.printf "  %-7s %-10s %-8s %-12s %-18s %-30s %s\n" "nodes" "monitors" "domains"
      "checks" "est. check work" "host s/sim s [min, max]" "wall speedup [min, max]"
  end;
  let fleet_rows =
    List.concat_map
      (fun (nodes, monitors, domains) -> run_fleet_point ~nodes ~monitors domains)
      (fleet_points ())
  in
  if not json then
    List.iter
      (fun (nodes, n, domains, checks, overhead, per_sim_s, speedup, _) ->
        Printf.printf "  %-7d %-10d %-8d %-12d %12.0f ns    %-30s %s\n" nodes n domains checks
          overhead
          (Common.timing_str "%.4g" per_sim_s)
          (Common.timing_str "%.2fx" speedup))
      fleet_rows;
  if json then
    let open Common.Json in
    Common.print_json
      (Obj
         [
           ("experiment", Str "scale");
           ("host_cores", Common.json_int Common.host_cores);
           ("runs", Common.json_int Common.runs);
           ( "rows",
             Arr
               (List.map
                  (fun (n, checks, overhead, per_sim_s, monitors) ->
                    Obj
                      [
                        ("monitors", Common.json_int n);
                        ("checks", Common.json_int checks);
                        ("est_check_work_ns", Common.json_num overhead);
                        ("host_sec_per_sim_sec", Common.json_timing per_sim_s);
                        ("monitor_metrics", monitors);
                      ])
                  rows
                @ List.map
                    (fun (nodes, n, domains, checks, overhead, per_sim_s, speedup, monitors) ->
                      Obj
                        [
                          ("nodes", Common.json_int nodes);
                          ("monitors", Common.json_int n);
                          ("domains", Common.json_int domains);
                          ("checks", Common.json_int checks);
                          ("est_check_work_ns", Common.json_num overhead);
                          ("host_sec_per_sim_sec", Common.json_timing per_sim_s);
                          ("wall_speedup", Common.json_timing speedup);
                          ("monitor_metrics", monitors);
                        ])
                    fleet_rows) );
         ])
