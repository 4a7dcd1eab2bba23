(* Ablation F — how many guardrails can a kernel afford?

   §3.3's incremental-deployment story implies fleets of monitors.
   This sweep installs N copies of a Listing 2-sized TIMER monitor
   (each over its own keys, 100ms interval) against the Figure 2
   workload and reports total checks, the engine's estimated checking
   work, and the host wall-clock per simulated second — the knee, if
   any, is where monitor dispatch would start to matter. *)

open Gr_util

let monitor_source i =
  Printf.sprintf
    {|guardrail scale_%d { trigger: { TIMER(0, 100ms) } rule: { AVG(key_%d, 1s) <= 1000 } action: { REPORT("over") } }|}
    i i

let run_with ~monitors =
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
  let wall_start = Common.now_ns () in
  Gr_kernel.Kernel.run_until rig.kernel Common.run_until;
  let wall = (Common.now_ns () -. wall_start) /. 1e9 in
  let engine = Guardrails.Deployment.engine rig.deployment in
  ( Guardrails.Engine.Stats.total_checks engine,
    Guardrails.Engine.Stats.total_overhead_ns engine,
    wall,
    Common.compact_monitors_json rig.deployment )

let monitor_counts () = if !Common.smoke then [ 1; 10 ] else [ 1; 10; 50; 200; 1000 ]

(* Fleet sweep: the same Listing 2-sized monitors, but fleet-wide —
   installed on the control engine, each aggregating the merged view
   of every node's shard of its key. Each node feeds all keys at a
   fixed cadence, so checking work grows with monitors while the
   per-check merge fans out over nodes. *)

let fleet_run_until = Time_ns.sec 3

let run_fleet_with ~nodes ~monitors ~domains =
  let fleet = Guardrails.Fleet.create ~nodes ~seed:7 ~domains ~engine:!Common.engine () in
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
      (Guardrails.Fleet.install_source_exn fleet (monitor_source i)
        : Guardrails.Engine.handle list)
  done;
  let wall_start = Common.now_ns () in
  Guardrails.Fleet.run_until fleet fleet_run_until;
  let wall = (Common.now_ns () -. wall_start) /. 1e9 in
  let engine = Guardrails.Fleet.engine fleet in
  ( Guardrails.Engine.Stats.total_checks engine,
    Guardrails.Engine.Stats.total_overhead_ns engine,
    wall,
    Common.compact_monitors_json (Guardrails.Fleet.control fleet) )

(* The sweep is (nodes, monitors, domains) triples: a one-domain
   grid, plus a wide-fleet grid (up to 64 nodes) that runs the
   epoch-barrier runtime at every domain count.
   Speedup on a multi-core host comes from the node phases running
   concurrently; Common.host_cores stamps the ceiling. *)
let fleet_counts () =
  if !Common.smoke then [ (1, 1, 1); (2, 10, 1); (2, 10, 2) ]
  else
    let sequential =
      List.concat_map
        (fun n -> List.map (fun m -> (n, m, 1)) [ 1; 10; 50 ])
        [ 1; 2; 4; 8 ]
    in
    let parallel =
      List.concat_map
        (fun (n, m) -> List.map (fun d -> (n, m, d)) [ 1; 2; 4; 8 ])
        [ (16, 10); (64, 10); (64, 50) ]
    in
    sequential @ parallel

let run ~json =
  if not json then begin
    Common.section "Ablation F — monitor-count scalability";
    Printf.printf "  %-10s %-12s %-18s %s\n" "monitors" "checks" "est. check work" "host s/sim s"
  end;
  let rows =
    List.map
      (fun n ->
        let checks, overhead, wall, monitors = run_with ~monitors:n in
        let per_sim_s = wall /. Time_ns.to_float_sec Common.run_until in
        if not json then
          Printf.printf "  %-10d %-12d %12.0f ns    %8.3f\n" n checks overhead per_sim_s;
        (n, checks, overhead, per_sim_s, monitors))
      (monitor_counts ())
  in
  if not json then begin
    Common.section
      (Printf.sprintf "Ablation F' — fleet scalability (nodes x monitors x domains, %d core(s))"
         Common.host_cores);
    Printf.printf "  %-7s %-10s %-8s %-12s %-18s %-14s %s\n" "nodes" "monitors" "domains"
      "checks" "est. check work" "host s/sim s" "wall speedup"
  end;
  let fleet_rows =
    List.map
      (fun (nodes, n, domains) ->
        let checks, overhead, wall, monitors = run_fleet_with ~nodes ~monitors:n ~domains in
        let per_sim_s = wall /. Time_ns.to_float_sec fleet_run_until in
        (nodes, n, domains, checks, overhead, wall, per_sim_s, monitors))
      (fleet_counts ())
  in
  (* wall_speedup: the same (nodes, monitors) point's --domains 1 wall
     over this row's — 1.0 for the baseline itself, NaN (JSON null)
     when no baseline ran. *)
  let speedup_of (nodes, n, _, _, _, wall, _, _) =
    match
      List.find_opt (fun (n', m', d', _, _, _, _, _) -> n' = nodes && m' = n && d' = 1)
        fleet_rows
    with
    | Some (_, _, _, _, _, base_wall, _, _) when wall > 0. -> base_wall /. wall
    | _ -> Float.nan
  in
  if not json then
    List.iter
      (fun ((nodes, n, domains, checks, overhead, _, per_sim_s, _) as row) ->
        Printf.printf "  %-7d %-10d %-8d %-12d %12.0f ns    %10.3f    %8.2fx\n" nodes n
          domains checks overhead per_sim_s (speedup_of row))
      fleet_rows;
  if json then
    let open Common.Json in
    Common.print_json
      (Obj
         [
           ("experiment", Str "scale");
           ("host_cores", Common.json_int Common.host_cores);
           ( "rows",
             Arr
               (List.map
                  (fun (n, checks, overhead, per_sim_s, monitors) ->
                    Obj
                      [
                        ("monitors", Common.json_int n);
                        ("checks", Common.json_int checks);
                        ("est_check_work_ns", Common.json_num overhead);
                        ("host_sec_per_sim_sec", Common.json_num per_sim_s);
                        ("monitor_metrics", monitors);
                      ])
                  rows
                @ List.map
                    (fun ((nodes, n, domains, checks, overhead, _, per_sim_s, monitors) as
                          row) ->
                      Obj
                        [
                          ("nodes", Common.json_int nodes);
                          ("monitors", Common.json_int n);
                          ("domains", Common.json_int domains);
                          ("checks", Common.json_int checks);
                          ("est_check_work_ns", Common.json_num overhead);
                          ("host_sec_per_sim_sec", Common.json_num per_sim_s);
                          ("wall_speedup", Common.json_num (speedup_of row));
                          ("monitor_metrics", monitors);
                        ])
                    fleet_rows) );
         ])
