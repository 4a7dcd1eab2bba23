(* The serve control plane: the versioned spec lifecycle behind
   grc serve (lib/core/lifecycle.ml, docs/SERVE.md).

   The load-bearing assertions:
   - rollback restores the previous version bit-identically — the
     same physical handles keep running, the engine's monitor table
     and the store's demand refcounts return exactly to their
     pre-push state;
   - repeated push/rollback and push/promote cycles leave demand
     refcounts stationary (the exactly-once release regression);
   - concurrent pushes serialize with the loser rejected;
   - epoch-chunked execution (the barrier decision points) is
     trace-byte-identical to a one-shot run, so the control plane's
     version checks cost zero on the steady-state path;
   - the audit log chains every decision parent-resolvably from
     rollback/promote back to the push that caused it. *)

open Gr_util
module L = Guardrails.Lifecycle
module Fleet = Guardrails.Fleet
module D = Guardrails.Deployment
module Kernel = Guardrails.Kernel
module Store = Gr_runtime.Feature_store
module Rt = Gr_runtime.Engine
module Event = Gr_trace.Event
module Sink = Gr_trace.Sink
module Tracer = Gr_trace.Tracer
module P = Gr_trace.Provenance
module Soak = Gr_fault.Soak
module Fault = Gr_fault.Fault

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let boot_spec =
  {|
guardrail serve-tail {
  trigger: { TIMER(0, 100ms) },
  rule: { COUNT(latency_us, 1s) == 0 || QUANTILE(latency_us, 0.99, 1s) <= 1e9 },
  action: {
    REPORT("p99 degraded", latency_us)
    REPLACE("lat_predictor")
  }
}
|}

(* Same aggregate shapes as boot_spec, different threshold: promoting
   it must leave the store's demand set unchanged. *)
let good_spec =
  {|
guardrail serve-tail {
  trigger: { TIMER(0, 100ms) },
  rule: { COUNT(latency_us, 1s) == 0 || QUANTILE(latency_us, 0.99, 1s) <= 5e8 },
  action: {
    REPORT("p99 degraded", latency_us)
    REPLACE("lat_predictor")
  }
}
|}

(* Violates the fire-rate guardrail on an idle deployment: nothing
   feeds serve_heartbeat, so the 10ms timer fires ~100 actions per
   simulated second — far over the default 5/s. *)
let hot_spec =
  {|
guardrail serve-heartbeat {
  trigger: { TIMER(0, 10ms) },
  rule: { COUNT(serve_heartbeat, 1s) >= 1 },
  action: {
    REPORT("no heartbeat", serve_heartbeat)
    REPLACE("lat_predictor")
  }
}
|}

(* Dies at admission: GRL003 (divisor constantly zero). *)
let bad_spec =
  {|
guardrail serve-bad {
  trigger: { TIMER(0, 100ms) },
  rule: { LOAD(latency_us) / 0 <= 1 },
  action: { REPORT("unreachable") }
}
|}

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let make ?(nodes = 3) ?config ?audit () =
  let fleet = Fleet.create ~nodes ~seed:7 ~tracing:true () in
  let lc = L.create ?config ?audit (L.Fleet fleet) in
  (match L.boot lc ~who:"test" boot_spec with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "boot rejected: %a" D.pp_error e);
  (fleet, lc)

(* ------------------------------------------------------------------ *)
(* Admission, canary, promotion                                       *)
(* ------------------------------------------------------------------ *)

let test_push_canary_promote () =
  let fleet, lc = make () in
  (match L.push lc ~who:"alice" good_spec with
  | L.Admitted { version } -> check_int "admitted as v2" 2 version
  | L.Rejected { reason; _ } -> Alcotest.failf "rejected: %s" reason);
  check "admitted push is staged for the next barrier" true
    (match L.phase lc with L.Pending _ -> true | _ -> false);
  L.advance lc ~epochs:1;
  check "canarying after the install barrier" true
    (match L.phase lc with L.Rolling _ -> true | _ -> false);
  check "canary routed onto node subset" true
    (Fleet.canary fleet ~policy:"lat_predictor" = Some [ 0 ]);
  L.advance lc ~epochs:3;
  check "steady after three clean verdicts" true (L.phase lc = L.Steady);
  check_int "one promotion" 1 (L.promotions lc);
  check_int "no rollbacks" 0 (L.rollbacks lc);
  (match L.active lc with
  | Some v ->
    check_int "v2 is active" 2 v.L.id;
    check_string "pushed-by identity recorded" "alice" v.L.who
  | None -> Alcotest.fail "no active version");
  (match L.find_version lc 1 with
  | Some v1 ->
    check "v1 superseded" true (v1.L.status = L.Superseded);
    check_int "v1 holds no engine handles" 0 (List.length v1.L.handles)
  | None -> Alcotest.fail "v1 missing from history");
  check "canary cleared after promotion" true
    (Fleet.canary fleet ~policy:"lat_predictor" = None)

let test_admission_reject () =
  let _fleet, lc = make () in
  (match L.push lc ~who:"bob" bad_spec with
  | L.Admitted _ -> Alcotest.fail "GRL003 spec must be rejected"
  | L.Rejected { version; diagnostics; _ } ->
    check_int "rejected push still consumes a version id" 2 version;
    check "diagnostics carry GRL003" true
      (List.exists
         (fun (d : Guardrails.Diagnostic.t) -> d.code = "GRL003")
         diagnostics));
  check "machine stays steady" true (L.phase lc = L.Steady);
  (match L.find_version lc 2 with
  | Some v -> check "version marked rejected" true (v.L.status = L.Rejected)
  | None -> Alcotest.fail "rejected version missing from history");
  (* The registry is not wedged: the next push admits. *)
  match L.push lc ~who:"bob" good_spec with
  | L.Admitted { version } -> check_int "next push admits as v3" 3 version
  | L.Rejected { reason; _ } -> Alcotest.failf "follow-up rejected: %s" reason

let test_concurrent_pushes_serialized () =
  let _fleet, lc = make () in
  (match L.push lc ~who:"alice" good_spec with
  | L.Admitted _ -> ()
  | L.Rejected { reason; _ } -> Alcotest.failf "first push rejected: %s" reason);
  (* Second push while the first is staged: loser rejected. *)
  (match L.push lc ~who:"bob" good_spec with
  | L.Admitted _ -> Alcotest.fail "second push must lose the race"
  | L.Rejected { reason; _ } ->
    check "reason names the in-flight rollout" true (contains reason "in progress"));
  L.advance lc ~epochs:1;
  (* And again mid-canary. *)
  (match L.push lc ~who:"carol" good_spec with
  | L.Admitted _ -> Alcotest.fail "mid-canary push must lose the race"
  | L.Rejected _ -> ());
  L.advance lc ~epochs:3;
  check_int "winner promoted" 1 (L.promotions lc);
  (* Both losing pushes are kept in history with version ids of
     their own (3 and 4), so the retry lands as v5. *)
  match L.push lc ~who:"bob" good_spec with
  | L.Admitted { version } -> check_int "loser can retry once steady" 5 version
  | L.Rejected { reason; _ } -> Alcotest.failf "retry rejected: %s" reason

(* ------------------------------------------------------------------ *)
(* Rollback restores the prior version bit-identically                *)
(* ------------------------------------------------------------------ *)

let test_rollback_restores_prior_version () =
  let fleet, lc = make () in
  let engine = Fleet.engine fleet in
  let store = Fleet.store fleet in
  let v1_handles = (Option.get (L.active lc)).L.handles in
  let table0 = Rt.installed_count engine in
  let demand0 = Store.demand_count store in
  (match L.push lc ~who:"mallory" hot_spec with
  | L.Admitted _ -> ()
  | L.Rejected { reason; _ } -> Alcotest.failf "hot spec must admit: %s" reason);
  L.advance lc ~epochs:1;
  (* Canary installed alongside v1: both versions live. *)
  check_int "canary adds to the monitor table" (table0 + 1) (Rt.installed_count engine);
  check_int "canary demands its own shape" (demand0 + 1) (Store.demand_count store);
  check "v1 keeps running through the canary window" true
    (List.for_all Rt.installed v1_handles);
  L.advance lc ~epochs:1;
  (* First verdict: ~100 fires/s >> 5/s, rolled back. *)
  check_int "one rollback" 1 (L.rollbacks lc);
  check "steady again" true (L.phase lc = L.Steady);
  (match L.active lc with
  | Some v -> check_int "v1 restored as active" 1 v.L.id
  | None -> Alcotest.fail "no active version after rollback");
  (* Bit-identical restore: v1 was never uninstalled — the same
     physical handles are still live on the engine. *)
  let v1_after = (Option.get (L.active lc)).L.handles in
  check "same physical handle list" true
    (List.length v1_handles = List.length v1_after
    && List.for_all2 ( == ) v1_handles v1_after);
  check "v1 handles still installed" true (List.for_all Rt.installed v1_after);
  check_int "monitor table back to baseline" table0 (Rt.installed_count engine);
  check_int "demand refcounts back to baseline" demand0 (Store.demand_count store);
  match L.find_version lc 2 with
  | Some v2 ->
    check "hot version marked rolled back" true (v2.L.status = L.Rolled_back);
    check_int "hot version holds no handles" 0 (List.length v2.L.handles)
  | None -> Alcotest.fail "v2 missing from history"

(* The satellite regression: repeated push/rollback and push/promote
   cycles must leave streaming-aggregate demand refcounts and the
   monitor table stationary — a leaked refcount or an un-dropped
   state record shows up as monotone drift here. *)
let test_refcount_stationary_across_cycles () =
  let fleet, lc = make ~config:{ L.default_config with canary_barriers = 1 } () in
  let engine = Fleet.engine fleet in
  let store = Fleet.store fleet in
  let table0 = Rt.installed_count engine in
  let demand0 = Store.demand_count store in
  for cycle = 1 to 10 do
    (match L.push lc ~who:"mallory" hot_spec with
    | L.Admitted _ -> ()
    | L.Rejected { reason; _ } -> Alcotest.failf "cycle %d rejected: %s" cycle reason);
    L.advance lc ~epochs:2;
    check "cycle ends steady" true (L.phase lc = L.Steady);
    check_int
      (Printf.sprintf "demand refcounts stationary after rollback cycle %d" cycle)
      demand0 (Store.demand_count store);
    check_int
      (Printf.sprintf "monitor table stationary after rollback cycle %d" cycle)
      table0 (Rt.installed_count engine)
  done;
  check_int "ten rollbacks recorded" 10 (L.rollbacks lc);
  (* Promote cycles: same shapes, so the demand set is invariant
     across version swaps too. *)
  for cycle = 1 to 5 do
    let spec = if cycle mod 2 = 0 then good_spec else boot_spec in
    (match L.push lc ~who:"alice" spec with
    | L.Admitted _ -> ()
    | L.Rejected { reason; _ } -> Alcotest.failf "promote cycle %d rejected: %s" cycle reason);
    L.advance lc ~epochs:2;
    check "promote cycle ends steady" true (L.phase lc = L.Steady);
    check_int
      (Printf.sprintf "demand refcounts stationary after promote cycle %d" cycle)
      demand0 (Store.demand_count store);
    check_int
      (Printf.sprintf "monitor table stationary after promote cycle %d" cycle)
      table0 (Rt.installed_count engine)
  done;
  check_int "five promotions recorded" 5 (L.promotions lc)

(* A whole session is garbage once dropped: a 4-node fleet under a
   lifecycle with a promoted push, a rolled-back push and a rejected
   push leaves the same live heap after compaction each time it is
   built and dropped. The first session may intern what later ones
   share, so the second and third are compared. perfbench's
   fleet-serve [peak_heap_mb] grows with run length although its
   repetitions leave nothing live: it reads the running maximum of the
   heap size, which later GC phases can still raise. *)
let[@inline never] run_session () =
  let _fleet, lc = make ~nodes:4 ~config:{ L.default_config with canary_barriers = 1 } () in
  List.iter
    (fun spec ->
      ignore (L.push lc ~who:"heap" spec : L.decision);
      L.advance lc ~epochs:2)
    [ good_spec; hot_spec; bad_spec; boot_spec ];
  check_int "one rollback" 1 (L.rollbacks lc);
  check_int "two promotions" 2 (L.promotions lc)

let live_words_after_session () =
  run_session ();
  Gc.compact ();
  (Gc.stat ()).Gc.live_words

let test_sessions_leave_nothing_live () =
  ignore (live_words_after_session () : int);
  let second = live_words_after_session () in
  let third = live_words_after_session () in
  check_int "live words after the third session equal the second's" second third

(* ------------------------------------------------------------------ *)
(* Chunked execution is trace-byte-identical (grc serve ≡ grc run)    *)
(* ------------------------------------------------------------------ *)

let test_chunked_run_bit_identical () =
  let build () =
    let kernel = Kernel.create ~seed:11 in
    let d = D.create ~kernel ~tracing:true () in
    (kernel, d)
  in
  (* One-shot, installed the way grc run does. *)
  let kernel_a, d_a = build () in
  (match D.install_source d_a boot_spec with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "install failed: %a" D.pp_error e);
  Kernel.run_until kernel_a (Time_ns.sec 1);
  (* Epoch-chunked with the lifecycle barrier as decision point,
     installed the way grc serve boots. *)
  let kernel_b, d_b = build () in
  let lc = L.create (L.Deployment d_b) in
  (match L.boot lc ~who:"test" boot_spec with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "boot failed: %a" D.pp_error e);
  Guardrails.Sim.run_chunked kernel_b.Kernel.engine ~epoch:Fleet.default_epoch
    ~limit:(Time_ns.sec 1) ~at_barrier:(L.barrier lc);
  check_int "barriers fired" 20 (L.barriers_seen lc);
  let events d = Sink.to_list (Tracer.events (D.tracer d)) in
  let ea = events d_a and eb = events d_b in
  check_int "same event count" (List.length ea) (List.length eb);
  List.iteri
    (fun i (a, b) ->
      if not (Event.equal a b) then
        Alcotest.failf "event %d diverged:@.  run:   %a@.  serve: %a" i Event.pp a Event.pp b)
    (List.combine ea eb)

(* A lifecycle over a single deployment still promotes (no canary
   subset to route — the verdict gates on the whole deployment). *)
let test_deployment_target_promotes () =
  let kernel = Kernel.create ~seed:11 in
  let d = D.create ~kernel () in
  let lc = L.create (L.Deployment d) in
  (match L.boot lc ~who:"test" boot_spec with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "boot failed: %a" D.pp_error e);
  (match L.push lc ~who:"alice" good_spec with
  | L.Admitted _ -> ()
  | L.Rejected { reason; _ } -> Alcotest.failf "rejected: %s" reason);
  L.advance lc ~epochs:5;
  check_int "promoted" 1 (L.promotions lc);
  check_int "v2 active" 2 (Option.get (L.active lc)).L.id

(* ------------------------------------------------------------------ *)
(* Audit log: JSONL round-trip and decision provenance                *)
(* ------------------------------------------------------------------ *)

let test_audit_log_chain () =
  let path = Filename.temp_file "grc-audit" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let log = Guardrails.Audit_log.create ~path in
      let emitted = ref [] in
      let _fleet, lc =
        make
          ~audit:(fun e ->
            emitted := e :: !emitted;
            Guardrails.Audit_log.append log e)
          ()
      in
      (match L.push lc ~who:"alice" good_spec with L.Admitted _ -> () | _ -> ());
      L.advance lc ~epochs:4;
      (match L.push lc ~who:"mallory" hot_spec with L.Admitted _ -> () | _ -> ());
      L.advance lc ~epochs:2;
      (match L.push lc ~who:"bob" bad_spec with L.Rejected _ -> () | _ -> ());
      Guardrails.Audit_log.close log;
      (* Round-trip: the file replays to exactly the emitted events. *)
      let read =
        match Guardrails.Audit_log.read path with
        | Ok events -> events
        | Error e -> Alcotest.failf "audit log unreadable: %s" e
      in
      let emitted = List.rev !emitted in
      check_int "every decision event round-trips" (List.length emitted) (List.length read);
      List.iteri
        (fun i (a, b) ->
          if not (Event.equal a b) then Alcotest.failf "audit event %d diverged" i)
        (List.combine emitted read);
      (* Provenance loads the JSONL directly and the chains resolve. *)
      let prov =
        match P.load path with
        | Ok prov -> prov
        | Error e -> Alcotest.failf "Provenance.load: %s" e
      in
      check_int "no orphaned decisions" 0 (List.length (P.orphans prov));
      let names nodes = List.map (fun (n : P.node) -> n.P.event.Event.name) nodes in
      (match P.actions ~name:"rollout.rollback" prov with
      | [ rb ] ->
        check "rollback chains to the push that caused it" true
          (names (P.ancestors prov rb)
          = [ "spec.push"; "spec.admit"; "rollout.canary"; "rollout.verdict" ])
      | l -> Alcotest.failf "expected 1 rollback decision, found %d" (List.length l));
      (match P.actions ~name:"spec.reject" prov with
      | [ rj ] ->
        check "reject chains to its push" true (names (P.ancestors prov rj) = [ "spec.push" ])
      | l -> Alcotest.failf "expected 1 reject decision, found %d" (List.length l));
      check_int "one promote in the log" 1 (List.length (P.actions ~name:"rollout.promote" prov)))

(* ------------------------------------------------------------------ *)
(* Chaos: the rollout path under faults on the canary node            *)
(* ------------------------------------------------------------------ *)

(* Node 0 is both the injector's target and the canary subset, so
   these plans land the fault mid-rollout on the canary itself: a GC
   storm while a push is staged, then device death while the next
   version canaries. The serve scenario's own barrier invariants
   (demand refcounts, registry/table consistency, audit chain) do the
   asserting; problems surface in r.problems. *)
let test_canary_node_dies_mid_rollout () =
  let plan =
    [
      { Fault.at = Time_ns.ms 120; kind = Fault.Gc_storm { device = 0; duration = Time_ns.ms 200 } };
      { Fault.at = Time_ns.ms 210; kind = Fault.Device_death { device = 0; duration = Time_ns.ms 400 } };
    ]
  in
  let r =
    Soak.run_one ~nodes:3 ~scenario:"serve" ~seed:5 ~duration:(Time_ns.sec 1) ~plan ()
  in
  if not r.Soak.ok then
    Alcotest.failf "serve soak under canary-node faults: %s" (String.concat "; " r.Soak.problems);
  check_int "both faults landed" 2 r.Soak.faults_injected

(* ------------------------------------------------------------------ *)
(* Serve: the daemon's request/reply session, in-process              *)
(* ------------------------------------------------------------------ *)

module Serve = Guardrails.Serve
module J = Guardrails.Json

let session ?(nodes = 1) () =
  let target =
    if nodes = 1 then L.Deployment (D.create ~kernel:(Kernel.create ~seed:42) ~tracing:true ())
    else L.Fleet (Fleet.create ~nodes ~seed:42 ~tracing:true ())
  in
  let lc = L.create target in
  (match L.boot lc ~who:"test" boot_spec with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "boot failed: %a" D.pp_error e);
  (lc, Serve.create lc)

(* One request through [Serve.handle]: the reply is one JSON object
   and a newline. *)
let ask srv raw =
  let reply = Serve.handle srv raw in
  check "reply ends in a newline" true (String.ends_with ~suffix:"\n" reply);
  match J.parse (String.trim reply) with
  | Ok j -> j
  | Error e -> Alcotest.failf "reply %S is not JSON: %s" reply e

let field name j = Option.value ~default:J.Null (J.member name j)

let check_error what srv raw ~says =
  let r = ask srv raw in
  check (what ^ ": ok is false") true (field "ok" r = J.Bool false);
  match field "error" r with
  | J.Str e -> check (Printf.sprintf "%s: error %S mentions %S" what e says) true (contains e says)
  | _ -> Alcotest.failf "%s: no error string" what

let test_serve_rejects_bad_requests () =
  let lc, srv = session () in
  check_error "malformed JSON" srv "{\"cmd\":" ~says:"bad request";
  check_error "unknown cmd" srv {|{"cmd":"reboot"}|} ~says:"unknown cmd";
  check_error "not an object" srv "[1,2]" ~says:"unknown cmd";
  check_error "push without spec" srv {|{"cmd":"push","who":"x"}|} ~says:"spec";
  check_error "oversized request" srv
    (String.make (Serve.max_request_bytes + 1) ' ')
    ~says:"exceeds";
  let before = L.now lc in
  List.iter
    (fun (what, epochs) ->
      check_error what srv
        (Printf.sprintf {|{"cmd":"advance","epochs":%s}|} epochs)
        ~says:"epochs";
      check (what ^ " leaves the clock") true (Time_ns.compare (L.now lc) before = 0))
    [
      ("over-cap advance", string_of_int (Serve.max_advance_epochs + 1));
      ("negative advance", "-1");
      ("fractional advance", "1.5");
      ("non-numeric advance", {|"ten"|});
    ];
  check_int "no barrier ran" 0 (L.barriers_seen lc);
  check "nothing stopped the session" false (Serve.stopped srv)

let test_serve_status_and_quit () =
  let lc, srv = session ~nodes:3 () in
  let r = ask srv {|{"cmd":"advance","epochs":2}|} in
  check "advance replies ok" true (field "ok" r = J.Bool true);
  check_int "two barriers" 2 (L.barriers_seen lc);
  check "advance replies the status" true (field "now_sec" r = J.Num 0.1);
  let r = ask srv {|{"cmd":"status"}|} in
  check "status fields, in order" true
    (match r with
    | J.Obj fields ->
      List.map fst fields
      = [ "ok"; "phase"; "now_sec"; "active"; "versions"; "promotions"; "rollbacks" ]
    | _ -> false);
  check "phase" true (field "phase" r = J.Str "steady");
  check "active version" true (field "version" (field "active" r) = J.Num 1.);
  check "active who" true (field "who" (field "active" r) = J.Str "test");
  check "versions" true (field "versions" r = J.Num 1.);
  let r = ask srv (J.to_string (J.Obj [ ("cmd", J.Str "push"); ("spec", J.Str good_spec) ])) in
  check "push admitted" true (field "decision" r = J.Str "admitted");
  check "pusher defaults to anonymous" true
    (match L.find_version lc 2 with Some v -> v.L.who = "anonymous" | None -> false);
  check "default advance is one epoch" true
    (field "phase" (ask srv {|{"cmd":"advance"}|}) = J.Str "canarying:v2(0/3)");
  check "not stopped before quit" false (Serve.stopped srv);
  let r = ask srv {|{"cmd":"quit"}|} in
  check "quit acknowledged" true (field "stopping" r = J.Bool true);
  check "quit sets stopped" true (Serve.stopped srv)

(* grc serve --nodes 1 ≡ grc run: a session advanced through Serve
   traces exactly what one Kernel.run_until does. *)
let test_serve_single_node_trace_matches_run () =
  let kernel = Kernel.create ~seed:42 in
  let d = D.create ~kernel ~tracing:true () in
  (match D.install_source d boot_spec with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "install failed: %a" D.pp_error e);
  Kernel.run_until kernel (Time_ns.sec 2);
  let lc, srv = session () in
  ignore (ask srv {|{"cmd":"advance","epochs":15}|} : J.t);
  ignore (ask srv {|{"cmd":"advance","epochs":25}|} : J.t);
  check_string "serve trace = run trace"
    (Guardrails.Trace_export.chrome_string (D.tracer d))
    (Guardrails.Trace_export.chrome_string (D.tracer (L.control lc)))

(* ------------------------------------------------------------------ *)
(* CLI: spec on stdin ("-") shares the admission code path            *)
(* ------------------------------------------------------------------ *)

let grc_exe () =
  List.find_opt Sys.file_exists [ "../bin/grc.exe"; "_build/default/bin/grc.exe" ]

let test_cli_stdin_spec () =
  match grc_exe () with
  | None -> Alcotest.fail "grc.exe not found next to the test runner"
  | Some grc ->
    let with_spec src f =
      let path = Filename.temp_file "grc-serve-test" ".grd" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
        (fun () ->
          let oc = open_out path in
          output_string oc src;
          close_out oc;
          f path)
    in
    with_spec bad_spec (fun bad ->
        check_int "lint - rejects the admission-rejected spec on stdin" 2
          (Sys.command (Printf.sprintf "%s lint - < %s >/dev/null 2>&1" grc bad)));
    with_spec good_spec (fun good ->
        check_int "verify - passes the admissible spec on stdin" 0
          (Sys.command (Printf.sprintf "%s verify - < %s >/dev/null 2>&1" grc good));
        check_int "lint - --strict passes it too" 0
          (Sys.command (Printf.sprintf "%s lint - --strict < %s >/dev/null 2>&1" grc good)))

let suite =
  [
    ( "serve",
      [
        Alcotest.test_case "push admits, canaries onto a node subset, promotes" `Quick
          test_push_canary_promote;
        Alcotest.test_case "admission rejects with structured diagnostics" `Quick
          test_admission_reject;
        Alcotest.test_case "concurrent pushes serialize; loser rejected" `Quick
          test_concurrent_pushes_serialized;
        Alcotest.test_case "rollback restores the prior version bit-identically" `Quick
          test_rollback_restores_prior_version;
        Alcotest.test_case "refcounts stationary across push/rollback/promote cycles" `Quick
          test_refcount_stationary_across_cycles;
        Alcotest.test_case "epoch-chunked serve run is trace-identical to grc run" `Quick
          test_chunked_run_bit_identical;
        Alcotest.test_case "single-deployment target promotes without a canary subset" `Quick
          test_deployment_target_promotes;
        Alcotest.test_case "audit log round-trips and chains every decision" `Quick
          test_audit_log_chain;
        Alcotest.test_case "canary node faults mid-rollout leave invariants intact" `Quick
          test_canary_node_dies_mid_rollout;
        Alcotest.test_case "session refuses bad requests and leaves the clock" `Quick
          test_serve_rejects_bad_requests;
        Alcotest.test_case "session status fields, push and quit" `Quick
          test_serve_status_and_quit;
        Alcotest.test_case "session --nodes 1 trace equals one run_until" `Quick
          test_serve_single_node_trace_matches_run;
        Alcotest.test_case "lint/verify accept the spec on stdin" `Quick test_cli_stdin_spec;
        Alcotest.test_case "dropped sessions leave the same live heap" `Quick
          test_sessions_leave_nothing_live;
      ] );
  ]
