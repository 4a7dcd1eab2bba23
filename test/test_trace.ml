(* Tests for gr_trace: ring-buffer sinks, tracer gating, exporter
   round-trips, trace determinism, and the REPORT channel the runtime
   violation log is a view over. *)

open Gr_util
module Event = Gr_trace.Event
module Sink = Gr_trace.Sink
module Tracer = Gr_trace.Tracer
module Metrics = Gr_trace.Metrics
module Export = Gr_trace.Export
module Json = Gr_trace.Json
module Provenance = Gr_trace.Provenance

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let ev ?(ts = 0) ?dur_ns ?args ?(cat = "test") ?(ph = Event.Instant) name =
  Event.make ~ts ?dur_ns ?args ~cat ~ph name

(* ---------- Sink ---------- *)

let test_sink_drop_newest () =
  let s = Sink.create ~capacity:4 () in
  for i = 1 to 10 do
    Sink.emit s (ev ~ts:i (Printf.sprintf "e%d" i))
  done;
  check_int "bounded at capacity" 4 (Sink.length s);
  check_int "all emits counted" 10 (Sink.emitted s);
  check_int "overflow counted as drops" 6 (Sink.dropped s);
  check_bool "full" true (Sink.is_full s);
  (* eBPF-ringbuf discipline: when full the incoming event is the one
     rejected, so the earliest events survive. *)
  Alcotest.(check (list string))
    "oldest events kept, oldest first" [ "e1"; "e2"; "e3"; "e4" ]
    (List.map (fun (e : Event.t) -> e.name) (Sink.to_list s))

let test_sink_overwrite_oldest () =
  let s = Sink.create ~capacity:4 ~overflow:Sink.Overwrite_oldest () in
  for i = 1 to 10 do
    Sink.emit s (ev ~ts:i (Printf.sprintf "e%d" i))
  done;
  check_int "bounded at capacity" 4 (Sink.length s);
  check_int "evictions counted as drops" 6 (Sink.dropped s);
  Alcotest.(check (list string))
    "most recent window kept" [ "e7"; "e8"; "e9"; "e10" ]
    (List.map (fun (e : Event.t) -> e.name) (Sink.to_list s))

(* Fleet discipline: node tracers run small Overwrite_oldest rings, so
   a long soak keeps the freshest window per node while the accounting
   still reflects everything that was ever emitted. *)
let test_sink_overwrite_oldest_node_tagged () =
  let tr =
    Tracer.create
      ~clock:(fun () -> 0)
      ~capacity:4 ~overflow:Sink.Overwrite_oldest ~node_id:3 ()
  in
  Tracer.set_enabled tr true;
  for i = 1 to 10 do
    Tracer.instant tr ~cat:"test" (Printf.sprintf "e%d" i)
  done;
  let s = Tracer.events tr in
  check_int "bounded at capacity" 4 (Sink.length s);
  check_int "all emits counted" 10 (Sink.emitted s);
  check_int "evictions counted as drops" 6 (Sink.dropped s);
  let survivors = Sink.to_list s in
  Alcotest.(check (list string))
    "most recent window kept" [ "e7"; "e8"; "e9"; "e10" ]
    (List.map (fun (e : Event.t) -> e.name) survivors);
  List.iteri
    (fun i (e : Event.t) ->
      check_bool "survivor keeps its node tag" true
        (List.assoc_opt "node" e.args = Some (Event.Int 3));
      (* Span ids are allocated per emission, so the surviving window
         carries the ids of the last four emissions, in order. *)
      check_bool "survivor keeps its original span id" true
        (List.assoc_opt "span" e.args = Some (Event.Int (6 + i))))
    survivors

let test_sink_clear_keeps_accounting () =
  let s = Sink.create ~capacity:2 () in
  for i = 1 to 5 do
    Sink.emit s (ev ~ts:i "e")
  done;
  Sink.clear s;
  check_int "empty after clear" 0 (Sink.length s);
  check_int "emitted preserved" 5 (Sink.emitted s);
  check_int "dropped preserved" 3 (Sink.dropped s);
  Sink.emit s (ev ~ts:6 "f");
  check_int "usable after clear" 1 (Sink.length s)

(* Growable sinks agree with the fixed-array reference over random
   emit/clear runs, both overflow policies and capacities 1-64 (below,
   at and past the 16-slot start). *)
let sink_matches_reference =
  let open QCheck2.Gen in
  let op = frequency [ (12, map (fun i -> `Emit i) nat); (1, return `Clear) ] in
  QCheck2.Test.make ~name:"growable sink matches the fixed-array reference" ~count:300
    (triple (int_range 1 64) bool (list_size (int_range 0 300) op))
    (fun (capacity, overwrite, ops) ->
      let overflow = if overwrite then Sink.Overwrite_oldest else Sink.Drop_newest in
      let s = Sink.create ~capacity ~overflow () and r = Sink_ref.create ~capacity ~overflow in
      let agree () =
        List.equal Event.equal (Sink.to_list s) (Sink_ref.to_list r)
        && Sink.length s = Sink_ref.length r
        && Sink.emitted s = Sink_ref.emitted r
        && Sink.dropped s = Sink_ref.dropped r
        && Sink.is_full s = Sink_ref.is_full r
        && Sink.capacity s = Sink_ref.capacity r
      in
      List.for_all
        (fun op ->
          (match op with
          | `Emit i ->
            let e = ev ~ts:i (string_of_int i) in
            Sink.emit s e;
            Sink_ref.emit r e
          | `Clear ->
            Sink.clear s;
            Sink_ref.clear r);
          agree ())
        ops)

(* Once grown to its capacity a sink's [emit] stores the event as is:
   no [Some] box, no growth, under either policy. *)
let test_sink_emit_allocates_nothing () =
  let e = ev "preallocated" in
  List.iter
    (fun overflow ->
      let s = Sink.create ~capacity:64 ~overflow () in
      for _ = 1 to 64 do
        Sink.emit s e
      done;
      Sink.clear s;
      let w0 = Gc.minor_words () in
      for _ = 1 to 10_000 do
        Sink.emit s e
      done;
      let words = Gc.minor_words () -. w0 in
      check_int "every emit counted" 10_064 (Sink.emitted s);
      Alcotest.(check (float 0.)) "minor words across 10k emits" 0. words)
    [ Sink.Drop_newest; Sink.Overwrite_oldest ]

(* ---------- Tracer gating ---------- *)

let test_tracer_gating () =
  let tr = Tracer.create ~clock:(fun () -> 0) () in
  Tracer.instant tr ~cat:"test" "dropped-while-disabled";
  check_int "disabled tracer emits nothing" 0 (Sink.emitted (Tracer.events tr));
  Tracer.report tr "violation";
  check_int "reports bypass the gate" 1 (Sink.length (Tracer.reports tr));
  Tracer.set_enabled tr true;
  Tracer.instant tr ~cat:"test" "recorded";
  Tracer.with_span tr ~cat:"test" "span" (fun () -> ());
  check_int "enabled tracer records (instant + B + E)" 3 (Sink.length (Tracer.events tr))

let test_tracer_node_tagging () =
  let tr = Tracer.create ~clock:(fun () -> 0) ~node_id:2 () in
  Tracer.set_enabled tr true;
  Tracer.instant tr ~cat:"test" ~args:[ ("x", Event.Float 1.) ] "tagged";
  Tracer.instant tr ~cat:"test" "tagged-bare";
  (match Sink.to_list (Tracer.events tr) with
  | [ a; b ] ->
    check_bool "provenance then node id appended to existing args" true
      (a.Event.args
      = [ ("x", Event.Float 1.); ("span", Event.Int 0); ("node", Event.Int 2) ]);
    check_bool "node id materializes args when absent" true
      (b.Event.args = [ ("span", Event.Int 1); ("node", Event.Int 2) ])
  | l -> Alcotest.failf "expected 2 events, got %d" (List.length l));
  (* Metrics inherit the tag and surface it as a leading JSON field;
     an untagged tracer's output shape is unchanged. *)
  (match Metrics.to_json (Tracer.metrics tr) with
  | Json.Obj (("node", Json.Num 2.) :: _) -> ()
  | _ -> Alcotest.fail "metrics json must lead with the node field");
  let untagged = Tracer.create ~clock:(fun () -> 0) () in
  match Metrics.to_json (Tracer.metrics untagged) with
  | Json.Obj [ ("monitors", _) ] -> ()
  | _ -> Alcotest.fail "untagged metrics json shape must be unchanged"

(* A causal scope nests, and a scope left by an exception still
   restores the parent it replaced; [None] keeps the current one. *)
let test_with_parent_scope () =
  let tr = Tracer.create ~clock:(fun () -> 0) () in
  Tracer.set_enabled tr true;
  let emit name = Tracer.instant tr ~cat:"test" name in
  Tracer.with_parent tr (Some 100) (fun () ->
      emit "outer";
      Tracer.with_parent tr None (fun () -> emit "none");
      (try
         Tracer.with_parent tr (Some 200) (fun () ->
             emit "inner";
             failwith "boom")
       with Failure _ -> ());
      emit "restored");
  emit "after";
  Alcotest.(check (list (option int)))
    "parent per event"
    [ Some 100; Some 100; Some 200; Some 100; None ]
    (List.map
       (fun (e : Event.t) ->
         match List.assoc_opt "parent" e.args with Some (Event.Int p) -> Some p | _ -> None)
       (Sink.to_list (Tracer.events tr)))

(* ---------- Exporter round-trip ---------- *)

(* Durations are chosen integral-in-microseconds so the ns -> us -> ns
   conversion is exact and Event.equal can require bit-equality. *)
let roundtrip_events =
  [
    ev ~ts:0 ~cat:"sim" "dispatch";
    ev ~ts:1_500 ~cat:"hook" ~ph:Event.Begin ~args:[ ("latency_us", Event.Float 12.5) ] "io";
    ev ~ts:2_500 ~cat:"hook" ~ph:Event.End "io";
    ev ~ts:1_000_000 ~cat:"check" ~ph:Event.Complete ~dur_ns:42_000.
      ~args:
        [
          ("monitor_id", Event.Int 3);
          ("violated", Event.Bool true);
          ("trigger", Event.Str "timer");
        ]
      "low-false-submit";
    ev ~ts:2_000_000 ~cat:"store" ~ph:Event.Counter ~args:[ ("value", Event.Float 0.25) ]
      "store:x";
    ev ~ts:3_000_000 ~cat:"report"
      ~args:[ ("message", Event.Str "rate exceeded 5% \"quoted\"\n\xe2\x86\x92") ]
      "m";
  ]

let test_export_roundtrip () =
  let s = Json.to_string (Export.chrome_of_events roundtrip_events) in
  match Export.events_of_chrome_string s with
  | Error e -> Alcotest.failf "round-trip parse failed: %s" e
  | Ok parsed ->
    check_int "same count" (List.length roundtrip_events) (List.length parsed);
    List.iter2
      (fun a b ->
        check_bool (Format.asprintf "event round-trips: %a" Event.pp a) true (Event.equal a b))
      roundtrip_events parsed

let test_export_chrome_shape () =
  let j = Export.chrome_of_events roundtrip_events in
  let evs = Option.value ~default:Json.Null (Json.member "traceEvents" j) in
  check_int "one object per event" (List.length roundtrip_events)
    (List.length (Json.to_list evs));
  let first = List.hd (Json.to_list evs) in
  check_string "ph letter" "i"
    (Option.value ~default:"?" (Option.bind (Json.member "ph" first) Json.string_value));
  (* ts is microseconds in the Chrome format. *)
  let check_ev = List.nth (Json.to_list evs) 3 in
  check_int "ts in us" 1000
    (Option.value ~default:0 (Option.bind (Json.member "ts" check_ev) Json.int_value));
  check_int "dur in us" 42
    (Option.value ~default:0 (Option.bind (Json.member "dur" check_ev) Json.int_value))

(* ---------- Json ---------- *)

let test_json_parser () =
  let rt s = Json.to_string (Json.parse_exn s) in
  check_string "object" {|{"a":1,"b":[true,null,"x"]}|} (rt {|{"a":1,"b":[true,null,"x"]}|});
  check_string "whitespace tolerated" {|{"a":1}|} (rt {| { "a" : 1 } |});
  check_string "escapes" {|"a\"b\\c\nd"|} (rt {|"a\"b\\c\nd"|});
  check_string "unicode escape to UTF-8" "\"\xe2\x86\x92\"" (rt {|"→"|});
  check_string "surrogate pair" "\"\xf0\x9f\x98\x80\"" (rt {|"😀"|});
  check_bool "floats" true (Json.equal (Json.parse_exn "2.5e1") (Json.Num 25.));
  check_bool "negative" true (Json.equal (Json.parse_exn "-3") (Json.Num (-3.)));
  check_bool "trailing garbage rejected" true (Result.is_error (Json.parse "1 2"));
  check_bool "bad token rejected" true (Result.is_error (Json.parse "{a:1}"));
  check_bool "unterminated rejected" true (Result.is_error (Json.parse {|{"a":|}));
  check_bool "non-finite prints as null" true
    (String.equal "[null,null]" (Json.to_string (Json.Arr [ Num nan; Num infinity ])))

(* ---------- Metrics ---------- *)

let test_metrics_registry () =
  let m = Metrics.create () in
  let mon = Metrics.monitor m "g" in
  check_bool "same account on re-lookup" true (mon == Metrics.monitor m "g");
  let latency () =
    match Metrics.to_json m with
    | Json.Obj [ ("monitors", Json.Arr [ row ]) ] ->
      let field k = Option.bind (Json.member "latency_ns" row) (Json.member k) in
      (Json.member "checks" row, field "mean", field "min", field "max")
    | _ -> Alcotest.fail "unexpected to_json shape"
  in
  (match latency () with
  | _, Some Json.Null, Some Json.Null, Some Json.Null -> ()
  | _ -> Alcotest.fail "no checks -> null mean/min/max");
  for i = 1 to 100 do
    Metrics.record_check mon ~cost_ns:(float_of_int i) ~insts:3 ~samples:2
      ~violated:(i mod 10 = 0)
  done;
  Metrics.record_fire mon;
  check_int "checks" 100 mon.Metrics.checks;
  check_int "violations" 10 mon.Metrics.violations;
  check_int "fires" 1 mon.Metrics.fires;
  check_int "insts accumulate" 300 mon.Metrics.vm_insts;
  (match Metrics.monitors m with
  | [ row ] ->
    check_bool "row mean" true (row.Metrics.check_cost_ns /. float_of_int row.checks = 50.5);
    check_bool "row min" true (row.min_ns = 1.);
    check_bool "row max" true (row.max_ns = 100.)
  | rows -> Alcotest.failf "expected one row, got %d" (List.length rows));
  match latency () with
  | Some checks, Some mean, Some min, Some max ->
    check_int "json checks" 100 (Option.value ~default:0 (Json.int_value checks));
    check_bool "json mean" true (Json.float_value mean = Some 50.5);
    check_bool "json min" true (Json.float_value min = Some 1.);
    check_bool "json max" true (Json.float_value max = Some 100.)
  | _ -> Alcotest.fail "json row lacks checks or latency_ns"

(* Per-check account updates are what every check pays; a boxed float
   field or an allocated option would show up here. *)
let test_account_updates_allocate_nothing () =
  let m = Metrics.create () in
  let a = Metrics.register m "g" in
  let cost_ns = 42.5 in
  let out = { Metrics.value = 1.; cost_ns } in
  let w0 = Gc.minor_words () in
  for i = 1 to 10_000 do
    Metrics.record_check a ~cost_ns ~insts:3 ~samples:1 ~violated:(i land 1 = 0);
    Metrics.record_check_out a out ~insts:3 ~samples:1 ~violated:(i land 1 = 0);
    Metrics.record_fire a;
    Metrics.record_action_cost a ~cost_ns
  done;
  let words = Gc.minor_words () -. w0 in
  check_int "checks counted" 20_000 a.Metrics.checks;
  Alcotest.(check (float 0.)) "minor words across 10k updates" 0. words

(* ---------- End-to-end: traced deployment ---------- *)

let guardrail_src =
  {|guardrail trace-test { trigger: { TIMER(0, 100ms) } rule: { LOAD(x) <= 0.5 } action: { REPORT("x exceeded", x); SAVE(y, 1) } }|}

(* A tiny deterministic scenario: x starts safe, is driven over the
   threshold at t=450ms, and a 100ms TIMER monitor reports it. *)
let run_traced ?(seed = 5) () =
  let kernel = Guardrails.Kernel.create ~seed in
  let d = Guardrails.Deployment.create ~kernel ~tracing:true () in
  Guardrails.Deployment.save d "x" 0.;
  ignore
    (Guardrails.Deployment.install_source_exn d guardrail_src : Guardrails.Engine.handle list);
  ignore
    (Gr_sim.Engine.schedule_at kernel.engine (Time_ns.ms 450) (fun _ ->
         Guardrails.Deployment.save d "x" 0.9)
      : Gr_sim.Engine.handle);
  Guardrails.Kernel.run_until kernel (Time_ns.sec 1);
  d

let test_trace_determinism () =
  let a = Guardrails.Trace_export.chrome_string (Guardrails.Deployment.tracer (run_traced ()))
  and b = Guardrails.Trace_export.chrome_string (Guardrails.Deployment.tracer (run_traced ())) in
  check_bool "same seed, bit-identical trace" true (String.equal a b);
  check_bool "trace is non-trivial" true (String.length a > 500)

let test_deployment_trace_parses () =
  let d = run_traced () in
  let tr = Guardrails.Deployment.tracer d in
  match Guardrails.Trace_export.events_of_chrome_string (Guardrails.Trace_export.chrome_string tr) with
  | Error e -> Alcotest.failf "chrome parse failed: %s" e
  | Ok evs ->
    check_int "every buffered event exported"
      (Sink.length (Tracer.events tr) + Sink.length (Tracer.reports tr))
      (List.length evs);
    check_bool "contains TIMER check spans" true
      (List.exists
         (fun (e : Event.t) -> e.cat = "check" && e.ph = Event.Complete)
         evs);
    check_bool "contains the SAVE action" true
      (List.exists (fun (e : Event.t) -> e.cat = "action" && e.name = "SAVE") evs)

let test_violations_are_report_view () =
  let d = run_traced () in
  let reports = Sink.to_list (Tracer.reports (Guardrails.Deployment.tracer d)) in
  let violations = Guardrails.Engine.violations (Guardrails.Deployment.engine d) in
  check_bool "monitor reported" true (List.length violations >= 1);
  check_int "one record per report event" (List.length reports) (List.length violations);
  let v = List.hd violations in
  check_string "message" "x exceeded" v.Guardrails.Engine.message;
  check_string "monitor name" "trace-test" v.Guardrails.Engine.monitor;
  check_bool "snapshot carries the named key" true
    (match List.assoc_opt "x" v.Guardrails.Engine.snapshot with
    | Some x -> x > 0.5
    | None -> false);
  check_bool "fires at the first check after the step" true
    (v.Guardrails.Engine.at = Time_ns.ms 500)

(* ---------- Provenance ---------- *)

(* Reconstruct the causal forest of the traced scenario above and walk
   the t=500ms REPORT back to the sim dispatch that caused it. *)
let test_provenance_reconstruction () =
  let d = run_traced () in
  let chrome = Guardrails.Trace_export.chrome_string (Guardrails.Deployment.tracer d) in
  match Gr_trace.Provenance.of_chrome_string chrome with
  | Error e -> Alcotest.failf "provenance parse failed: %s" e
  | Ok prov ->
    check_bool "non-trivial trace" true (Gr_trace.Provenance.size prov > 10);
    check_int "no orphan events" 0 (List.length (Gr_trace.Provenance.orphans prov));
    let reports = Gr_trace.Provenance.reports prov in
    check_bool "at least one report" true (reports <> []);
    let e = Gr_trace.Provenance.explain prov (List.hd reports) in
    (* Chain: sim dispatch roots it, the rule check decides it. *)
    let root = List.hd e.Gr_trace.Provenance.chain in
    check_string "rooted at a sim dispatch" "sim" root.Gr_trace.Provenance.event.Event.cat;
    (match e.Gr_trace.Provenance.decision with
    | Some dn ->
      check_string "decided by the rule check" "check" dn.Gr_trace.Provenance.event.Event.cat;
      check_string "by the installed monitor" "trace-test" dn.Gr_trace.Provenance.event.Event.name
    | None -> Alcotest.fail "report must have a deciding check");
    check_bool "SAVE action is a sibling effect" true
      (List.exists
         (fun n ->
           n.Gr_trace.Provenance.event.Event.cat = "action"
           && n.Gr_trace.Provenance.event.Event.name = "SAVE")
         e.Gr_trace.Provenance.effects);
    (* The snapshot input resolves to the store write that produced
       the value the rule read. *)
    (match e.Gr_trace.Provenance.inputs with
    | { Gr_trace.Provenance.key = "x"; value = Some v; writer = Some w; _ } :: _ ->
      check_bool "input value is the violating one" true (v > 0.5);
      check_string "writer is the store counter" "store:x" w.Gr_trace.Provenance.event.Event.name
    | _ -> Alcotest.fail "expected input x with a resolved writer");
    (* Both renderers accept the explanation. *)
    check_bool "text rendering non-empty" true
      (String.length (Format.asprintf "%a" Gr_trace.Provenance.pp_explanation e) > 100);
    match Gr_trace.Provenance.explanation_to_json e with
    | Json.Obj fields -> check_bool "json has a chain" true (List.mem_assoc "chain" fields)
    | _ -> Alcotest.fail "explanation_to_json must be an object"

let test_provenance_actions_same_decision () =
  let d = run_traced () in
  let chrome = Guardrails.Trace_export.chrome_string (Guardrails.Deployment.tracer d) in
  let prov = Result.get_ok (Gr_trace.Provenance.of_chrome_string chrome) in
  match Gr_trace.Provenance.actions ~name:"SAVE" prov with
  | [] -> Alcotest.fail "expected a SAVE action"
  | save :: _ ->
    let e = Gr_trace.Provenance.explain prov save in
    check_bool "action's decision is a check" true
      (match e.Gr_trace.Provenance.decision with
      | Some n -> n.Gr_trace.Provenance.event.Event.cat = "check"
      | None -> false);
    check_bool "monitor_decisions finds it" true
      (List.memq save (Gr_trace.Provenance.monitor_decisions prov "trace-test"))

(* ---------- OpenMetrics ---------- *)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_openmetrics_exposition () =
  let d = run_traced () in
  let om = Guardrails.Trace_export.openmetrics (Guardrails.Deployment.tracer d) in
  check_bool "counter family typed" true
    (contains ~needle:"# TYPE guardrail_checks counter" om);
  check_bool "per-monitor labelled row" true
    (contains ~needle:{|guardrail_checks_total{monitor="trace-test"} 11|} om);
  check_bool "latency summary present" true
    (contains ~needle:"# TYPE guardrail_check_latency_ns summary" om);
  check_bool "sink accounting exported" true
    (contains ~needle:"guardrail_trace_emitted_total" om);
  check_bool "terminated" true
    (String.length om > 5 && String.sub om (String.length om - 6) 6 = "# EOF\n")

(* The value of the exposition line that starts with [series]. *)
let om_value om series =
  let prefix = series ^ " " in
  match
    List.find_opt (String.starts_with ~prefix) (String.split_on_char '\n' om)
  with
  | Some line ->
    let n = String.length prefix in
    float_of_string (String.sub line n (String.length line - n))
  | None -> Alcotest.failf "no series %s" series

(* The summary's [_sum] is the rules' cost alone, so [_sum/_count] is
   the mean check cost; SAVE value programs count only toward
   [guardrail_vm_cost_ns]. The oracle is the check spans themselves,
   whose duration is the check's estimated cost. *)
let test_openmetrics_summary_excludes_actions () =
  let d = run_traced () in
  let tr = Guardrails.Deployment.tracer d in
  let om = Guardrails.Trace_export.openmetrics tr in
  let spans =
    List.filter (fun (e : Event.t) -> e.cat = "check") (Sink.to_list (Tracer.events tr))
  in
  let span_sum = List.fold_left (fun acc (e : Event.t) -> acc +. e.dur_ns) 0. spans in
  let m = {|{monitor="trace-test"}|} in
  check_bool "the SAVE action fired" true (om_value om ("guardrail_fires_total" ^ m) > 0.);
  check_int "count is the checks" (List.length spans)
    (int_of_float (om_value om ("guardrail_check_latency_ns_count" ^ m)));
  check_bool "sum is the summed check costs" true
    (Float.abs (om_value om ("guardrail_check_latency_ns_sum" ^ m) -. span_sum)
    <= 1e-8 *. span_sum);
  check_bool "vm cost still includes the action" true
    (om_value om ("guardrail_vm_cost_ns_total" ^ m) > span_sum *. (1. +. 1e-8))

let test_openmetrics_fleet_rollup () =
  let make id checks =
    let tr = Tracer.create ~clock:(fun () -> 0) ~node_id:id () in
    let mon = Metrics.monitor (Tracer.metrics tr) "g" in
    for _ = 1 to checks do
      Metrics.record_check mon ~cost_ns:10. ~insts:1 ~samples:1 ~violated:false
    done;
    tr
  in
  let om =
    Guardrails.Trace_export.openmetrics_of_tracers [ make 0 3; make 1 4 ]
  in
  check_bool "node label on per-node rows" true
    (contains ~needle:{|guardrail_checks_total{monitor="g",node="0"} 3|} om);
  check_bool "fleet rollup sums across nodes" true
    (contains ~needle:{|guardrail_checks_total{monitor="g",scope="fleet"} 7|} om);
  check_bool "rollup stays inside its typed family" true
    (contains ~needle:"# TYPE guardrail_checks counter" om)

let suite =
  [
    ( "trace.sink",
      [
        Alcotest.test_case "drop_newest overflow" `Quick test_sink_drop_newest;
        Alcotest.test_case "overwrite_oldest overflow" `Quick test_sink_overwrite_oldest;
        Alcotest.test_case "overwrite_oldest node-tagged accounting" `Quick
          test_sink_overwrite_oldest_node_tagged;
        Alcotest.test_case "clear keeps accounting" `Quick test_sink_clear_keeps_accounting;
        Alcotest.test_case "sink emit allocates nothing" `Quick test_sink_emit_allocates_nothing;
        QCheck_alcotest.to_alcotest sink_matches_reference;
      ] );
    ( "trace.tracer",
      [
        Alcotest.test_case "gating" `Quick test_tracer_gating;
        Alcotest.test_case "node tagging" `Quick test_tracer_node_tagging;
        Alcotest.test_case "deterministic under fixed seed" `Quick test_trace_determinism;
      ] );
    ( "trace.export",
      [
        Alcotest.test_case "chrome round-trip" `Quick test_export_roundtrip;
        Alcotest.test_case "chrome shape" `Quick test_export_chrome_shape;
        Alcotest.test_case "deployment trace parses back" `Quick test_deployment_trace_parses;
      ] );
    ("trace.json", [ Alcotest.test_case "parser" `Quick test_json_parser ]);
    ( "trace.metrics",
      [
        Alcotest.test_case "registry" `Quick test_metrics_registry;
        Alcotest.test_case "account updates allocate nothing" `Quick
          test_account_updates_allocate_nothing;
      ] );
    ( "trace.provenance",
      [
        Alcotest.test_case "report chain reconstruction" `Quick test_provenance_reconstruction;
        Alcotest.test_case "actions share the decision" `Quick
          test_provenance_actions_same_decision;
        Alcotest.test_case "with_parent scopes nest and survive raises" `Quick
          test_with_parent_scope;
      ] );
    ( "trace.openmetrics",
      [
        Alcotest.test_case "exposition format" `Quick test_openmetrics_exposition;
        Alcotest.test_case "fleet rollup rows" `Quick test_openmetrics_fleet_rollup;
        Alcotest.test_case "summary sum excludes actions" `Quick
          test_openmetrics_summary_excludes_actions;
      ] );
    ( "trace.report",
      [
        Alcotest.test_case "violation log is a report view" `Quick
          test_violations_are_report_view;
      ] );
  ]
