(* Shared scenario builders for the benchmark harness.

   The central rig reproduces the paper's §5 setting: a flash-RAID
   block layer under a read workload, a LinnOS-style classifier
   trained on the healthy device regime, and a device aging event
   that makes the model stale mid-run. *)

open Gr_util

let listing2_source =
  {|
guardrail low-false-submit {
  trigger: {
    TIMER(start_time, 1e9) // Periodically check every 1s.
  },
  rule: {
    LOAD(false_submit_rate) <= 0.05
  },
  action: {
    REPORT("false-submit rate exceeded 5%", false_submit_rate)
    SAVE(ml_enabled, false)
  }
}
|}

type fig2_rig = {
  kernel : Gr_kernel.Kernel.t;
  devices : Gr_kernel.Ssd.t array;
  blk : Gr_kernel.Blk.t;
  model : Gr_policy.Linnos.t;
  deployment : Guardrails.Deployment.t;
  driver : Gr_workload.Io_driver.t;
}

let n_devices = 4
let io_rate = 1500.
let aging_at = Time_ns.sec 2
let workload_until = Time_ns.sec 8
let run_until = Time_ns.sec 9

(* --engine pins the monitor execution tier for every deployment the
   experiments build (default: the closure template JIT). Tiers are
   bit-identical in results and accounting, so figures must not move
   with this knob — only the tiers experiment's wall-clock does. *)
let engine = ref Guardrails.Vm.Jit

(* [rate_window]/[rate_every] control the false_submit_rate derivation
   the Listing 2 guardrail consumes. *)
let make_fig2_rig ?(seed = 7) ?(rate_window = Time_ns.sec 2) ?(rate_every = Time_ns.ms 100)
    ?(with_model = true) ?(tracing = false) ?trace_capacity () =
  let kernel = Gr_kernel.Kernel.create ~seed in
  let devices =
    Array.init n_devices (fun i ->
        Gr_kernel.Ssd.create ~rng:kernel.rng ~profile:Gr_kernel.Ssd.young_profile ~id:i)
  in
  let blk = Gr_kernel.Blk.create ~engine:kernel.engine ~hooks:kernel.hooks ~devices () in
  let model = Gr_policy.Linnos.train ~rng:kernel.rng ~devices () in
  if with_model then
    Gr_kernel.Policy_slot.install (Gr_kernel.Blk.slot blk) ~name:"linnos"
      (Gr_policy.Linnos.policy model);
  let deployment = Guardrails.Deployment.create ~kernel ~tracing ?trace_capacity ~engine:!engine () in
  Guardrails.Deployment.forward_hook_arg deployment ~hook:"blk:io_complete" ~arg:"false_submit" ();
  Guardrails.Deployment.derive_window_avg deployment ~src:"false_submit" ~dst:"false_submit_rate"
    ~window:rate_window ~every:rate_every;
  Guardrails.Deployment.save deployment "ml_enabled" 1.;
  Guardrails.Deployment.bind_control_key deployment ~key:"ml_enabled" (fun v ->
      Gr_policy.Linnos.set_enabled model (v <> 0.));
  Gr_kernel.Kernel.register_policy kernel ~name:"linnos"
    ~replace:(fun () -> Gr_policy.Linnos.set_enabled model false)
    ~restore:(fun () -> Gr_policy.Linnos.set_enabled model true)
    ~retrain:(fun () -> Gr_policy.Linnos.retrain model)
    ();
  (* Age every device at [aging_at]: the GC regime shifts and the
     trained classifier is stale from here on. *)
  ignore
    (Gr_sim.Engine.schedule_at kernel.engine aging_at (fun _ ->
         Array.iter
           (fun dev -> Gr_kernel.Ssd.set_profile dev Gr_kernel.Ssd.aged_profile)
           devices)
      : Gr_sim.Engine.handle);
  let driver =
    Gr_workload.Io_driver.start ~engine:kernel.engine ~rng:kernel.rng ~blk
      ~arrival:(Gr_workload.Arrival.poisson ~rate_per_sec:io_rate)
      ~n_devices ~zipf_s:0.5 ~until:workload_until ()
  in
  { kernel; devices; blk; model; deployment; driver }

(* Latency series bucketed into [bucket] windows, as (time_s, mean_us)
   rows — the paper's Figure 2 y-axis is a moving average of I/O
   latencies. *)
let latency_series ~bucket samples =
  let table = Hashtbl.create 64 in
  List.iter
    (fun (s : Gr_workload.Io_driver.sample) ->
      let b = s.at / bucket in
      let sum, n = Option.value ~default:(0., 0) (Hashtbl.find_opt table b) in
      Hashtbl.replace table b (sum +. s.latency_us, n + 1))
    samples;
  Hashtbl.fold (fun b (sum, n) acc -> (b, sum /. float_of_int (max 1 n)) :: acc) table []
  |> List.sort compare
  |> List.map (fun (b, mean) -> (Time_ns.to_float_sec (b * bucket), mean))

let mean_latency_between ~lo ~hi samples =
  let xs =
    List.filter_map
      (fun (s : Gr_workload.Io_driver.sample) ->
        if s.at >= lo && s.at < hi then Some s.latency_us else None)
      samples
  in
  Stats.mean (Array.of_list xs)

let first_violation deployment =
  match Guardrails.Engine.violations (Guardrails.Deployment.engine deployment) with
  | [] -> None
  | v :: _ -> Some v.Guardrails.Engine.at

(* --smoke shrinks iteration counts / sweep sizes so [make bench-smoke]
   finishes in seconds. Set by main.ml before dispatching experiments. *)
let smoke = ref false

(* Stamped into experiment headers so wall-clock numbers from
   parallel sweeps are interpretable: a wall_speedup of ~1 on a
   1-core host is expected, not a regression. *)
let host_cores = Domain.recommended_domain_count ()

let hr () = print_endline (String.make 78 '-')

let section title =
  hr ();
  Printf.printf "## %s\n" title;
  hr ()

(* ---------- machine-readable output (--json) ---------- *)

module Json = Guardrails.Json

(* Per-monitor telemetry of a deployment, as the gr_trace registry
   renders it: check counts, check-cost mean/min/max, cumulative VM
   cost. *)
let monitors_json deployment =
  match Guardrails.Metrics.to_json (Guardrails.Deployment.metrics deployment) with
  | Json.Obj [ ("monitors", monitors) ] -> monitors
  | other -> other

(* The scale sweeps install N copies of one spec, so their N
   per-monitor rows are identical except the name; collapse that case
   to a single aggregate row carrying a count, which keeps
   BENCH_scale.json readable at monitors=1000 instead of repeating
   the same metrics a thousand times. Any real divergence between
   monitors falls back to the full per-monitor list. *)
let compact_monitors_json deployment =
  match monitors_json deployment with
  | Json.Arr (first :: _ :: _ as l) -> (
    let strip = function
      | Json.Obj fields -> Json.Obj (List.filter (fun (k, _) -> k <> "name") fields)
      | j -> j
    in
    let f0 = strip first in
    if List.for_all (fun m -> Json.equal (strip m) f0) l then
      match f0 with
      | Json.Obj fields ->
        Json.Arr [ Json.Obj (("count", Num (float_of_int (List.length l))) :: fields) ]
      | _ -> Json.Arr l
    else Json.Arr l)
  | other -> other

let json_num x : Json.t = if Float.is_finite x then Num x else Null
let json_int i : Json.t = Num (float_of_int i)

let print_json (j : Json.t) = print_endline (Json.to_string j)
