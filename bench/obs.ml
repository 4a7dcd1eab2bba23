(* Ablation G — what does watching cost?

   The observability plane's self-overhead in real host time, not the
   VM's estimated-ns currency, by batched per-op calibration: a hot
   loop per subsystem divides its monotonic-clock time by the
   iterations, so the timer cost is amortised instead of being charged
   to every ~10ns operation. Each figure is the median of Common.runs
   batches, with min and max. Sinks are small bounded rings here — the
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

(* Host ns per call of [f], over batches of [n] calls. *)
let per_op n f =
  snd
    (Common.measure ~per:(float_of_int n) (fun () () ->
         for _ = 1 to n do
           f ()
         done))

(* A deployment with the AVG monitor installed and its window fed, so
   check_now exercises the real check path: incremental window
   aggregate, engine bookkeeping, metrics registry update, and — when
   tracing — provenance-tagged events into a bounded ring. *)
let make_checker ~tracing =
  let kernel = Gr_kernel.Kernel.create ~seed:11 in
  let d = Guardrails.Deployment.create ~kernel ~tracing ~trace_capacity:ring () in
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
  (* Written out, not through [per_op]: at ~5ns/op an indirect
     closure call and the lost inlining would be a measurable part of
     the result. The loop does what Tracer.tag does per event at
     steady state: allocate a span id and cons its arg cell onto the
     memoized parent/node tail (the tail itself is rebuilt once per
     causal scope, amortized across the scope's events). *)
  let provenance_ns =
    let tail = [ ("parent", Guardrails.Trace_event.Int 1) ] in
    snd
      (Common.measure ~per:(float_of_int n) (fun () () ->
           for _ = 1 to n do
             let s = Guardrails.Trace.fresh_span cal_tracer in
             ignore (Sys.opaque_identity (("span", Guardrails.Trace_event.Int s) :: tail))
           done))
  in
  let emit_ns = per_op n (fun () -> Guardrails.Trace.instant cal_tracer ~cat:"bench" "x") in
  let disabled_tracer = Guardrails.Trace.create ~clock:(fun () -> 0) ~capacity:16 () in
  let disabled_emit_ns =
    per_op n (fun () -> Guardrails.Trace.instant disabled_tracer ~cat:"bench" "x")
  in
  let metrics = Guardrails.Metrics.create () in
  let mon = Guardrails.Metrics.monitor metrics "obs" in
  let metrics_record_ns =
    per_op n (fun () ->
        Guardrails.Metrics.record_check mon ~cost_ns:123. ~insts:7 ~samples:3 ~violated:false)
  in
  (* The check path, untraced then traced, on the same monitor. *)
  let checks = n / 2 in
  let d0, h0 = make_checker ~tracing:false in
  let engine0 = Guardrails.Deployment.engine d0 in
  let check_ns =
    per_op checks (fun () -> ignore (Guardrails.Engine.check_now engine0 h0 : bool))
  in
  let d1, h1 = make_checker ~tracing:true in
  let engine1 = Guardrails.Deployment.engine d1 in
  let sink1 = Guardrails.Trace.events (Guardrails.Deployment.tracer d1) in
  (* [Sink.emitted] counts every emit call, buffered or dropped. *)
  let before = Guardrails.Trace_sink.emitted sink1 in
  let traced_check_ns =
    per_op checks (fun () -> ignore (Guardrails.Engine.check_now engine1 h1 : bool))
  in
  let events_per_check =
    float_of_int (Guardrails.Trace_sink.emitted sink1 - before)
    /. float_of_int (Common.runs * checks)
  in
  (* OpenMetrics exposition, amortised over the checks it summarises
     (rendering happens per scrape, not per check). *)
  let exposition = ref "" in
  let render_ns =
    per_op 1_000 (fun () ->
        exposition := Guardrails.Trace_export.openmetrics (Guardrails.Deployment.tracer d1))
  in
  let recorded_checks =
    List.fold_left
      (fun acc (m : Guardrails.Metrics.monitor) -> acc + m.checks)
      0
      (Guardrails.Metrics.monitors (Guardrails.Deployment.metrics d1))
  in
  (* Derived figures are taken from the medians. *)
  let render_per_check_ns = render_ns.median /. float_of_int (max 1 recorded_checks) in
  let provenance_per_check = provenance_ns.median *. events_per_check in
  let overhead_ratio =
    (provenance_per_check +. metrics_record_ns.median +. render_per_check_ns) /. check_ns.median
  in
  let trace_ratio =
    Float.max 0. (traced_check_ns.median -. check_ns.median) /. check_ns.median
  in
  if json then
    let open Common.Json in
    Common.print_json
      (Obj
         [
           ("experiment", Str "obs");
           ("iters", Common.json_int n);
           ("runs", Common.json_int Common.runs);
           ("check_ns", Common.json_timing check_ns);
           ("traced_check_ns", Common.json_timing traced_check_ns);
           ("trace_overhead_ratio", Common.json_num trace_ratio);
           ("events_per_check", Common.json_num events_per_check);
           ("emit_ns", Common.json_timing emit_ns);
           ("provenance_ns", Common.json_timing provenance_ns);
           ("provenance_per_check_ns", Common.json_num provenance_per_check);
           ("metrics_record_ns", Common.json_timing metrics_record_ns);
           ("openmetrics_render_ns", Common.json_timing render_ns);
           ("openmetrics_render_per_check_ns", Common.json_num render_per_check_ns);
           ("disabled_emit_ns", Common.json_timing disabled_emit_ns);
           ("overhead_ratio", Common.json_num overhead_ratio);
         ])
  else begin
    Common.section "Ablation G — observability self-overhead";
    Printf.printf "  per-op calibration (median [min, max] of %d batches of %d iterations):\n"
      Common.runs n;
    let row label t = Printf.printf "    %-36s %30s ns\n" label (Common.timing_str "%.1f" t) in
    row "rule check (untraced)" check_ns;
    row "rule check (traced, bounded ring)" traced_check_ns;
    row "trace emit (tagged instant)" emit_ns;
    Printf.printf "    %-36s %30s ns\n" "provenance bookkeeping / event"
      (Common.timing_str "%.2f" provenance_ns);
    row "metrics record_check" metrics_record_ns;
    row "OpenMetrics render / scrape" render_ns;
    row "emit on disabled tracer (1 branch)" disabled_emit_ns;
    Printf.printf "  events per traced check:               %8.2f\n" events_per_check;
    Printf.printf "  provenance+metrics vs check cost:      %8.2f%%\n" (100. *. overhead_ratio);
    Printf.printf "  tracing on vs off, whole check path:   %8.2f%%\n" (100. *. trace_ratio);
    ignore !exposition
  end
