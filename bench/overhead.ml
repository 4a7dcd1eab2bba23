(* Ablation A — monitor overhead.

   The TIMER sampling-interval trade-off the paper's §4.1 calls out
   ("TIMER allows systematic sampling in order to regulate the
   overhead of checking"): sweeping the Listing 2 check interval
   against detection latency and total checking work on the Figure 2
   scenario. The run exits non-zero unless, as the interval grows,
   checks strictly fall, the detection delay never shrinks, and the
   guardrail fires at every interval.

   Host-clock costs of the production check and store paths are
   perfbench's `engine.check_ns`, `store.save_ns` and
   `store.handle_load_ns`; this experiment reports no host times. *)

open Gr_util

type sweep_row = {
  interval_ns : Time_ns.t;
  detection_delay : Time_ns.t option;
  checks : int;
  overhead_ns : float;
  monitors : Common.Json.t;  (** per-monitor gr_trace telemetry *)
}

let sweep_intervals = [ Time_ns.ms 10; Time_ns.ms 100; Time_ns.sec 1; Time_ns.sec 5 ]

let run_sweep_row interval_ns =
  let rig = Common.make_fig2_rig ~seed:7 () in
  let src =
    Printf.sprintf
      {|guardrail sweep { trigger: { TIMER(0, %d) } rule: { LOAD(false_submit_rate) <= 0.05 } action: { REPORT("over"); SAVE(ml_enabled, false) } }|}
      interval_ns
  in
  let handles = Guardrails.Deployment.install_source_exn rig.deployment src in
  Gr_kernel.Kernel.run_until rig.kernel Common.run_until;
  let stats =
    Guardrails.Engine.Stats.get (Guardrails.Deployment.engine rig.deployment) (List.hd handles)
  in
  let detection_delay =
    Option.map
      (fun at -> Time_ns.diff at Common.aging_at)
      (Common.first_violation rig.deployment)
  in
  {
    interval_ns;
    detection_delay;
    checks = stats.checks;
    overhead_ns = stats.overhead_ns;
    monitors = Common.monitors_json rig.deployment;
  }

let json_output sweep : Common.Json.t =
  let open Common.Json in
  Obj
    [
      ("experiment", Str "overhead");
      ( "interval_sweep",
        Arr
          (List.map
             (fun r ->
               Obj
                 [
                   ("interval_ns", Common.json_int r.interval_ns);
                   ( "detection_delay_ns",
                     match r.detection_delay with Some d -> Common.json_int d | None -> Null );
                   ("checks", Common.json_int r.checks);
                   ("est_check_cost_ns", Common.json_num r.overhead_ns);
                   ("monitors", r.monitors);
                 ])
             sweep) );
    ]

(* The §4.1 verdict: a longer interval buys fewer checks (strictly)
   for a detection delay that never shrinks, and the guardrail still
   fires at every interval. Returns the first broken clause. *)
let verdict sweep =
  let rec steps = function a :: (b :: _ as rest) -> (a, b) :: steps rest | _ -> [] in
  let steps = steps sweep in
  if List.exists (fun r -> r.detection_delay = None) sweep then
    Some "the guardrail does not fire at every interval"
  else if List.exists (fun (a, b) -> b.checks >= a.checks) steps then
    Some "checks do not strictly fall as the interval grows"
  else if List.exists (fun (a, b) -> b.detection_delay < a.detection_delay) steps then
    Some "the detection delay shrinks as the interval grows"
  else None

let run ~json =
  if not json then Common.section "Ablation A — monitor overhead";
  let sweep = List.map run_sweep_row sweep_intervals in
  if json then Common.print_json (json_output sweep)
  else begin
    print_endline "TIMER interval sweep on the Figure 2 scenario:";
    Printf.printf "  %-10s %-18s %-10s %-16s\n" "interval" "detection delay" "checks"
      "est. check cost";
    List.iter
      (fun r ->
        let detection =
          match r.detection_delay with
          | Some d -> Format.asprintf "%a" Time_ns.pp d
          | None -> "never"
        in
        Printf.printf "  %-10s %-18s %-10d %12.0f ns\n"
          (Format.asprintf "%a" Time_ns.pp r.interval_ns)
          detection r.checks r.overhead_ns)
      sweep
  end;
  match verdict sweep with
  | None -> ()
  | Some broken ->
    Printf.eprintf "overhead: §4.1 verdict failed: %s\n" broken;
    exit 1
