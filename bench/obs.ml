(* Ablation G — what does watching cost?

   The observability plane's self-overhead in real host time, not the
   VM's estimated-ns currency, by batched per-op calibration: a hot
   loop per subsystem divides its monotonic-clock time by the
   iterations, so the timer cost is amortised instead of being charged
   to every ~10ns operation. Sinks are small bounded rings here — the
   deployment configuration — so the numbers are steady-state costs,
   not GC avalanches from holding hundreds of thousands of events
   live.

   The headline ratio is the causal-provenance tax: span allocation
   plus span/parent arg construction per emitted event, times the
   events a check path emits, plus the per-check metrics account
   update, plus the OpenMetrics exposition amortised over the checks
   it summarises — relative to the
   untraced check itself. Also measured: the disabled path, where an
   emission site on a disabled tracer is a single branch. *)

let avg_source =
  {|guardrail obs_avg { trigger: { TIMER(0, 100ms) } rule: { AVG(lat, 1s) <= 1000 } action: { REPORT("over") } }|}

let iters () = if !Common.smoke then 50_000 else 500_000
let samples = 1000
let ring = 4096

(* Mean host ns per call, timer amortised over the whole loop; best
   of [rounds] batches so a GC slice or scheduler preemption in one
   batch doesn't pollute the estimate. Each batch starts from an
   empty minor heap so allocation cost is charged uniformly instead
   of depending on where the previous batch left the nursery. *)
let rounds = 5

let calibrate ?(warmup = 10_000) n f =
  for _ = 1 to warmup do
    f ()
  done;
  let best = ref infinity in
  for _ = 1 to rounds do
    Gc.minor ();
    let t0 = Common.now_ns () in
    for _ = 1 to n do
      f ()
    done;
    best := Float.min !best ((Common.now_ns () -. t0) /. float_of_int n)
  done;
  !best

(* A deployment with the AVG monitor installed and its window fed, so
   check_now exercises the real check path: incremental window
   aggregate, engine bookkeeping, metrics registry update, and — when
   tracing — provenance-tagged events into a bounded ring. *)
let make_checker ~tracing =
  let kernel = Gr_kernel.Kernel.create ~seed:11 in
  let d = Guardrails.Deployment.create ~kernel ~tracing ~trace_capacity:ring ~engine:!Common.engine () in
  let handle =
    match Guardrails.Deployment.install_source d avg_source with
    | Ok [ h ] -> h
    | _ -> failwith "obs: install failed"
  in
  for i = 1 to samples do
    Guardrails.Deployment.save d "lat" (float_of_int (i mod 97))
  done;
  (d, handle)

let run ~json =
  let n = iters () in
  (* Provenance bookkeeping in isolation: exactly what Tracer.tag
     adds to an event — a span allocation and the span/parent arg
     cells. opaque_identity keeps the allocation without adding a
     write barrier the real path doesn't pay. *)
  let cal_tracer =
    Guardrails.Trace.create
      ~clock:(fun () -> 0)
      ~capacity:ring ~overflow:Guardrails.Trace_sink.Overwrite_oldest ~enabled:true ()
  in
  (* Direct loop, not through [calibrate]: at ~5ns/op an indirect
     closure call and the lost inlining would be a measurable part of
     the result, and code-placement luck makes it bimodal from run to
     run. The first rounds also absorb the CPU frequency ramp, which
     the min discards. The loop does what Tracer.tag does per event
     at steady state: allocate a span id and cons its arg cell onto
     the memoized parent/node tail (the tail itself is rebuilt once
     per causal scope, amortized across the scope's events). *)
  let provenance_ns =
    let tail = [ ("parent", Guardrails.Trace_event.Int 1) ] in
    let best = ref infinity in
    for _ = 1 to 2 * rounds do
      Gc.minor ();
      let t0 = Common.now_ns () in
      for _ = 1 to n do
        let s = Guardrails.Trace.fresh_span cal_tracer in
        ignore (Sys.opaque_identity (("span", Guardrails.Trace_event.Int s) :: tail))
      done;
      best := Float.min !best ((Common.now_ns () -. t0) /. float_of_int n)
    done;
    !best
  in
  let emit_ns =
    calibrate n (fun () -> Guardrails.Trace.instant cal_tracer ~cat:"bench" "x")
  in
  let disabled_tracer = Guardrails.Trace.create ~clock:(fun () -> 0) ~capacity:16 () in
  let disabled_emit_ns =
    calibrate n (fun () -> Guardrails.Trace.instant disabled_tracer ~cat:"bench" "x")
  in
  let metrics = Guardrails.Metrics.create () in
  let mon = Guardrails.Metrics.monitor metrics "obs" in
  let metrics_record_ns =
    calibrate n (fun () ->
        Guardrails.Metrics.record_check mon ~cost_ns:123. ~insts:7 ~samples:3 ~violated:false)
  in
  (* The check path, untraced then traced, on the same monitor. *)
  let checks = n / 2 in
  let d0, h0 = make_checker ~tracing:false in
  let engine0 = Guardrails.Deployment.engine d0 in
  let check_ns =
    calibrate checks (fun () -> ignore (Guardrails.Engine.check_now engine0 h0 : bool))
  in
  let d1, h1 = make_checker ~tracing:true in
  let engine1 = Guardrails.Deployment.engine d1 in
  let sink1 = Guardrails.Trace.events (Guardrails.Deployment.tracer d1) in
  (* [Sink.emitted] counts every emit call, buffered or dropped. *)
  let before = Guardrails.Trace_sink.emitted sink1 in
  let traced_check_ns =
    calibrate checks (fun () -> ignore (Guardrails.Engine.check_now engine1 h1 : bool))
  in
  let events_per_check =
    float_of_int (Guardrails.Trace_sink.emitted sink1 - before)
    /. float_of_int ((rounds * checks) + 10_000)
  in
  (* OpenMetrics exposition, amortised over the checks it summarises
     (rendering happens per scrape, not per check). *)
  let exposition = ref "" in
  let render_ns =
    calibrate ~warmup:100 1_000 (fun () ->
        exposition := Guardrails.Trace_export.openmetrics (Guardrails.Deployment.tracer d1))
  in
  let recorded_checks =
    List.fold_left
      (fun acc (m : Guardrails.Metrics.monitor) -> acc + m.checks)
      0
      (Guardrails.Metrics.monitors (Guardrails.Deployment.metrics d1))
  in
  let render_per_check_ns = render_ns /. float_of_int (max 1 recorded_checks) in
  (* Fleet-tier merge: AVG over a plain key sharded across 4 node
     stores, the per-read cost of a merged aggregate. *)
  let fleet = Guardrails.Fleet.create ~nodes:4 ~seed:11 ~engine:!Common.engine () in
  Array.iter
    (fun node ->
      let store = Guardrails.Deployment.store node in
      for i = 1 to samples / 4 do
        Guardrails.Store.save store "lat" (float_of_int (i mod 97))
      done)
    (Guardrails.Fleet.nodes fleet);
  let fleet_store = Guardrails.Fleet.store fleet in
  let store_merge_ns =
    calibrate ~warmup:1_000 (n / 50) (fun () ->
        ignore
          (Guardrails.Store.aggregate fleet_store ~key:"lat" ~fn:Guardrails.Ast.Avg
             ~window_ns:1e9 ~param:0.
            : float))
  in
  let provenance_per_check = provenance_ns *. events_per_check in
  let overhead_ratio =
    (provenance_per_check +. metrics_record_ns +. render_per_check_ns) /. check_ns
  in
  let trace_ratio = Float.max 0. (traced_check_ns -. check_ns) /. check_ns in
  if json then
    let open Common.Json in
    Common.print_json
      (Obj
         [
           ("experiment", Str "obs");
           ("iters", Common.json_int n);
           ("check_ns", Common.json_num check_ns);
           ("traced_check_ns", Common.json_num traced_check_ns);
           ("trace_overhead_ratio", Common.json_num trace_ratio);
           ("events_per_check", Common.json_num events_per_check);
           ("emit_ns", Common.json_num emit_ns);
           ("provenance_ns", Common.json_num provenance_ns);
           ("provenance_per_check_ns", Common.json_num provenance_per_check);
           ("metrics_record_ns", Common.json_num metrics_record_ns);
           ("openmetrics_render_ns", Common.json_num render_ns);
           ("openmetrics_render_per_check_ns", Common.json_num render_per_check_ns);
           ("store_merge_ns", Common.json_num store_merge_ns);
           ("disabled_emit_ns", Common.json_num disabled_emit_ns);
           ("overhead_ratio", Common.json_num overhead_ratio);
         ])
  else begin
    Common.section "Ablation G — observability self-overhead";
    Printf.printf "  per-op calibration (batched over %d iterations):\n" n;
    Printf.printf "    %-36s %10.1f ns\n" "rule check (untraced)" check_ns;
    Printf.printf "    %-36s %10.1f ns\n" "rule check (traced, bounded ring)" traced_check_ns;
    Printf.printf "    %-36s %10.1f ns\n" "trace emit (tagged instant)" emit_ns;
    Printf.printf "    %-36s %10.2f ns\n" "provenance bookkeeping / event" provenance_ns;
    Printf.printf "    %-36s %10.1f ns\n" "metrics record_check" metrics_record_ns;
    Printf.printf "    %-36s %10.1f ns\n" "OpenMetrics render / scrape" render_ns;
    Printf.printf "    %-36s %10.1f ns\n" "fleet store merge (4 nodes)" store_merge_ns;
    Printf.printf "    %-36s %10.1f ns\n" "emit on disabled tracer (1 branch)" disabled_emit_ns;
    Printf.printf "  events per traced check:               %8.2f\n" events_per_check;
    Printf.printf "  provenance+metrics vs check cost:      %8.2f%%\n" (100. *. overhead_ratio);
    Printf.printf "  tracing on vs off, whole check path:   %8.2f%%\n" (100. *. trace_ratio);
    ignore !exposition
  end
