(* Shared scenario builders for the benchmark harness.

   The central rig reproduces the paper's §5 setting: a flash-RAID
   block layer under a read workload, a LinnOS-style classifier
   trained on the healthy device regime, and a device aging event
   that makes the model stale mid-run. *)

open Gr_util

(* Host nanoseconds on the monotonic clock perfbench also reads. *)
let now_ns () = Int64.to_float (Monotonic_clock.now ())

(* Every host-time number the harness reports is the median of [runs]
   timed batches, with the fastest and slowest batch beside it. *)
let runs = 5

type timing = { median : float; min : float; max : float }

(* [measure ~per prepare] calls [prepare ()] [runs] times: it does any
   untimed setup and returns the batch thunk, which is timed from an
   empty minor heap. Each batch's host ns is divided by [per] (the
   operations in the batch, or 1e9 for seconds). The per-op loop lives
   inside the thunk, so it compiles as a direct loop. Returns the last
   batch's result with the timing. *)
let measure ?(per = 1.) (prepare : unit -> unit -> 'a) : 'a * timing =
  let result = ref None in
  let xs =
    Array.init runs (fun _ ->
        let batch = prepare () in
        Gc.minor ();
        let t0 = now_ns () in
        let r = batch () in
        let dt = now_ns () -. t0 in
        result := Some r;
        dt /. per)
  in
  ( Option.get !result,
    {
      median = Stats.quantile xs 0.5;
      min = Array.fold_left Float.min infinity xs;
      max = Array.fold_left Float.max neg_infinity xs;
    } )

(* [ratio a b] is the speedup of [b] over [a]: the ratio of the
   medians, bracketed by the extreme pairings of the two ranges. A
   timing over itself (a baseline row) is exactly 1. *)
let ratio a b =
  if a == b then { median = 1.; min = 1.; max = 1. }
  else { median = a.median /. b.median; min = a.min /. b.max; max = a.max /. b.min }

(* "12.3 [11.9, 14.0]": median, then min and max, each in [fmt]. *)
let timing_str fmt t =
  Printf.sprintf "%s [%s, %s]" (Printf.sprintf fmt t.median) (Printf.sprintf fmt t.min)
    (Printf.sprintf fmt t.max)

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
  let deployment = Guardrails.Deployment.create ~kernel ~tracing ?trace_capacity () in
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

let json_timing t : Json.t =
  Obj [ ("median", json_num t.median); ("min", json_num t.min); ("max", json_num t.max) ]

let print_json (j : Json.t) = print_endline (Json.to_string j)
