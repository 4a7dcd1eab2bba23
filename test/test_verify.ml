(* Tests for grc verify: the inter-rule dataflow fixpoint, the
   action-machine model checker and the fleet race analysis — golden
   diagnostics over the new specs/bad corpus, QCheck properties for
   fixpoint termination and slot-model fidelity, and the
   counterexample-validity contract: every schedule the checker emits
   must, replayed through the real engine via grc soak's plan
   machinery, drive the policy slot to exactly the flagged state. *)

open Gr_dsl
module Lower = Gr_compiler.Lower
module Opt = Gr_compiler.Opt
module Monitor = Gr_compiler.Monitor
module Interval = Gr_analysis.Interval
module Diagnostic = Gr_analysis.Diagnostic
module Analyze = Gr_analysis.Analyze
module Dataflow = Gr_analysis.Dataflow
module Machine = Gr_analysis.Machine
module Audit = Gr_analysis.Audit
module Replay = Gr_fault.Replay
module Soak = Gr_fault.Soak
module Model = Gr_kernel.Policy_slot.Model

let check_bool = Alcotest.(check bool)
let check_strings = Alcotest.(check (list string))

let specs_dir sub =
  let dir = Filename.concat "../../../specs" sub in
  if Sys.file_exists dir then dir else Filename.concat "specs" sub

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let compile_src ?(what = "inline spec") src =
  let spec = Parser.parse_exn src in
  (match Typecheck.check_spec spec with
  | Ok () -> ()
  | Error errs ->
    Alcotest.failf "%s: %s" what
      (String.concat "; " (List.map (fun e -> Format.asprintf "%a" Typecheck.pp_error e) errs)));
  List.map Opt.optimize_monitor (Lower.spec spec)

let bad_path name = Filename.concat (specs_dir "bad") name
let compile_file path = compile_src ~what:path (read_file path)

(* Single-file deployments audit as node 0 throughout. *)
let audit_file ?config name =
  Audit.run ?config (List.map (fun m -> (0, m)) (compile_file (bad_path name)))

(* Fleet deployments: one file per node, qualified like the CLI does. *)
let audit_fleet names =
  let tagged =
    List.concat
      (List.mapi
         (fun node_id name ->
           List.map
             (fun m -> (node_id, Monitor.qualify ~node_id m))
             (compile_file (bad_path name)))
         names)
  in
  Audit.run ~config:{ Audit.default_config with fleet = true } tagged

let diag_strings (a : Audit.t) = List.map Diagnostic.to_string a.diagnostics

(* ---------- Interval widening/narrowing primitives ---------- *)

let test_subset_widen () =
  check_bool "{1} subset [0,5]" true (Interval.subset (Interval.const 1.) (Interval.finite 0. 5.));
  check_bool "[0,5] not subset {1}" false
    (Interval.subset (Interval.finite 0. 5.) (Interval.const 1.));
  check_bool "widen jumps a growing upper bound to +oo" true
    (Interval.equal
       (Interval.widen (Interval.finite 0. 1.) (Interval.finite 0. 2.))
       (Interval.finite 0. infinity));
  check_bool "widen jumps a growing lower bound to -oo" true
    (Interval.equal
       (Interval.widen (Interval.finite 0. 1.) (Interval.finite (-1.) 1.))
       (Interval.finite neg_infinity 1.));
  check_bool "widen is stable on contained successors" true
    (Interval.equal
       (Interval.widen (Interval.finite 0. 5.) (Interval.finite 1. 2.))
       (Interval.finite 0. 5.))

(* ---------- The dataflow fixpoint ---------- *)

let test_dataflow_chain_fixpoint () =
  let monitors = compile_file (bad_path "dataflow_chain.grd") in
  let df = Dataflow.fixpoint monitors in
  check_bool "post-fixpoint" true (Dataflow.is_post_fixpoint df);
  (* Halving on every hop from an initial {0}: both pressure keys can
     only ever hold 0, which is what makes the watcher a tautology. *)
  check_bool "pressure_a pinned to {0}" true
    (Interval.equal (Dataflow.lookup df "pressure_a") (Interval.const 0.));
  check_bool "pressure_b pinned to {0}" true
    (Interval.equal (Dataflow.lookup df "pressure_b") (Interval.const 0.));
  check_bool "unwritten keys stay unknown" true
    (Interval.equal (Dataflow.lookup df "load_avg") Interval.unknown)

let test_dataflow_chain_golden () =
  check_strings "dataflow_chain.grd"
    [
      "warning[GRL001] monitor pressure-watch (21:28): rule is always true (value in {1}): \
       the guardrail can never fire";
    ]
    (diag_strings (audit_file "dataflow_chain.grd"))

(* Random SAVE graphs: cyclic, growing, shrinking — the fixpoint must
   terminate within the round budget and land on a post-fixpoint. *)
let gen_save_graph =
  let open QCheck2.Gen in
  let key = map (Printf.sprintf "k%d") (int_bound 3) in
  let expr =
    oneof
      [
        map string_of_int (int_range 0 100);
        map2 (fun k c -> Printf.sprintf "LOAD(%s) / %d" k c) key (int_range 1 4);
        map2 (fun k c -> Printf.sprintf "LOAD(%s) + %d" k c) key (int_range 0 8);
        map2 (fun k c -> Printf.sprintf "LOAD(%s) * %d" k c) key (int_range 0 3);
        map (fun k -> Printf.sprintf "LOAD(%s) - 1" k) key;
      ]
  in
  let monitor i =
    map2
      (fun k e ->
        Printf.sprintf
          "guardrail g%d { trigger: { TIMER(0, 1s) } rule: { AVG(ext, 1s) < 100 } action: { \
           SAVE(%s, %s) } }"
          i k e)
      key expr
  in
  int_range 1 6 >>= fun n ->
  flatten_l (List.init n monitor) >|= String.concat "\n"

let prop_fixpoint_terminates =
  QCheck2.Test.make ~name:"dataflow fixpoint terminates on a post-fixpoint" ~count:60
    ~print:Fun.id gen_save_graph (fun src ->
      let monitors = compile_src src in
      let df = Dataflow.fixpoint monitors in
      df.Dataflow.rounds <= 64 && Dataflow.is_post_fixpoint df)

(* ---------- The action-machine model checker ---------- *)

let test_unreachable_restore_golden () =
  check_strings "unreachable_restore.grd"
    [
      "warning[GRL001] monitor degraded-mode (16:22): rule is always true (value in {1}): \
       the guardrail can never fire";
      "warning[GRL201] monitor recovery (20:1): RESTORE \"io_model\" can never act: policy \
       \"io_model\" is live in every reachable state where monitor recovery fires — no \
       REPLACE can precede it (2 state(s) explored)";
    ]
    (diag_strings (audit_file "unreachable_restore.grd"))

let test_never_promote_canary () =
  check_strings "never_promote.grd plain" [] (diag_strings (audit_file "never_promote.grd"));
  let canaried =
    {
      Audit.default_config with
      machine = { Machine.default_config with canaries = [ ("lat_model", [ 0 ]) ] };
    }
  in
  check_strings "never_promote.grd --canary lat_model=0"
    [
      "warning[GRL202] monitor tail-guard: canaried policy \"lat_model\" (nodes 0) reaches \
       the canary state but no reachable action sequence extends the fallback fleet-wide: \
       the canary can never promote (2 state(s) explored)";
    ]
    (diag_strings (audit_file ~config:canaried "never_promote.grd"))

let test_replace_storm_golden () =
  let audit = audit_file "replace_storm.grd" in
  check_strings "replace_storm.grd"
    [
      "warning[GRL203] monitor breaker (10:1): policy \"svc_policy\" can flap forever: \
       REPLACE by breaker and RESTORE by prober are jointly reachable and re-enable each \
       other";
    ]
    (diag_strings audit);
  match audit.machine.Machine.findings with
  | [ f ] -> check_bool "GRL203 carries a schedule" true (f.Machine.schedule <> None)
  | fs -> Alcotest.failf "expected one machine finding, got %d" (List.length fs)

(* GRL104's pattern heuristic is superseded by the GRL203 proof when
   exploration completes: verify on the old flap corpus must report
   the proof, not the pattern. *)
let test_grl104_superseded () =
  let codes =
    List.map (fun (d : Diagnostic.t) -> d.code) (audit_file "replace_flap.grd").diagnostics
  in
  check_strings "replace_flap.grd under verify" [ "GRL203" ] codes

(* ---------- Counterexample validity ---------- *)

(* The heart of the feature: a GRL203 schedule is a claim about the
   real engine. Replaying it through Soak's plan machinery must leave
   every policy slot in the state the checker predicted, with at
   least the predicted number of transitions. *)
let assert_schedule_replays ~what ~spec_source (s : Machine.schedule) =
  let r = Replay.run ~spec_source s in
  check_bool (what ^ ": replay raises no invariant problems") true r.Soak.ok;
  List.iter
    (fun (policy, expect_fb) ->
      match List.find_opt (fun (n, _, _) -> n = policy) r.Soak.slots with
      | None -> Alcotest.failf "%s: policy %s missing from replay slots" what policy
      | Some (_, on_fb, flips) ->
        check_bool
          (Printf.sprintf "%s: %s ends %s" what policy
             (if expect_fb then "fallback" else "learned"))
          expect_fb on_fb;
        let min_flips = try List.assoc policy s.Machine.min_flips with Not_found -> 0 in
        check_bool
          (Printf.sprintf "%s: %s flips >= %d (got %d)" what policy min_flips flips)
          true (flips >= min_flips))
    s.Machine.expected

let schedule_of name =
  let audit = audit_file name in
  match
    List.find_map (fun (f : Machine.finding) -> f.Machine.schedule) audit.machine.findings
  with
  | Some s -> s
  | None -> Alcotest.failf "%s: no machine finding carries a schedule" name

let test_storm_schedule_replays () =
  List.iter
    (fun name ->
      assert_schedule_replays ~what:name
        ~spec_source:(read_file (bad_path name))
        (schedule_of name))
    [ "replace_storm.grd"; "replace_flap.grd" ]

(* Randomized storm templates: whatever thresholds and grids the spec
   uses, an emitted schedule must replay to the flagged state. *)
let gen_storm =
  let open QCheck2.Gen in
  map3
    (fun threshold probe_min interval_ms ->
      Printf.sprintf
        {|guardrail breaker {
  trigger: { TIMER(0, %dms) }
  rule: { QUANTILE(svc_p95_us, 0.95, %dms) < %d }
  action: { REPLACE("svc_policy") }
}
guardrail prober {
  trigger: { TIMER(%dms, %dms) }
  rule: { LOAD(probe_err) >= %d }
  action: { RESTORE("svc_policy") }
}|}
        interval_ms interval_ms threshold (interval_ms / 2) interval_ms probe_min)
    (int_range 100 5000) (int_range 1 5)
    (oneofl [ 50; 100; 200 ])

let prop_storm_schedules_replay =
  QCheck2.Test.make ~name:"randomized storm schedules replay to the flagged state" ~count:6
    ~print:Fun.id gen_storm (fun src ->
      let monitors = compile_src src in
      let result = Machine.check (Dataflow.fixpoint monitors) in
      match
        List.find_map (fun (f : Machine.finding) -> f.Machine.schedule) result.findings
      with
      | None -> false (* this template must both find the storm and render it *)
      | Some s ->
        let r = Replay.run ~spec_source:src s in
        r.Soak.ok
        && List.for_all
             (fun (policy, expect_fb) ->
               match List.find_opt (fun (n, _, _) -> n = policy) r.Soak.slots with
               | None -> false
               | Some (_, on_fb, flips) ->
                 on_fb = expect_fb
                 && flips >= (try List.assoc policy s.Machine.min_flips with Not_found -> 0))
             s.Machine.expected)

(* The checker's per-policy core is the runtime slot's own transition
   table: folding Model.step over any action sequence must agree with
   a real slot driven by the same actions. *)
let prop_model_matches_slot =
  QCheck2.Test.make ~name:"Policy_slot.Model agrees with the real slot" ~count:200
    QCheck2.Gen.(list_size (int_bound 24) bool)
    (fun actions ->
      let slot = Gr_kernel.Policy_slot.create ~name:"p" ~fallback:("fallback", ()) in
      Gr_kernel.Policy_slot.install slot ~name:"learned" ();
      let expected = ref Model.Learned in
      List.for_all
        (fun replace ->
          let input = if replace then Model.Replace else Model.Restore in
          (if replace then Gr_kernel.Policy_slot.use_fallback slot
           else Gr_kernel.Policy_slot.restore slot);
          expected := Model.step !expected input;
          Model.abstract slot = !expected)
        actions
      && List.length Model.table = 4)

(* ---------- Fleet race analysis ---------- *)

let test_race_budget_golden () =
  let audit = audit_fleet [ "race_budget_node0.grd"; "race_budget_node1.grd" ] in
  check_strings "race_budget pair"
    [
      "warning[GRL102] monitor node0::budget-setter: key \"global::io_budget\" is written by \
       multiple monitors (node0::budget-setter, node1::budget-trimmer): last writer wins";
      "warning[GRL301] monitor node0::budget-setter (9:1): GLOBAL key \"global::io_budget\" \
       is written from 2 nodes with checks that can coincide (e.g. t=0ns: \
       node0::budget-setter on node 0 vs node1::budget-trimmer on node 1, values {100} vs \
       {10}): the merged value depends on the (ts, node, order) intent-replay tie-break; \
       order-sensitive reader(s): node0::budget-reader via LOAD";
    ]
    (diag_strings audit)

let test_race_commutative_silent () =
  let audit = audit_fleet [ "race_heartbeat_node0.grd"; "race_heartbeat_node1.grd" ] in
  check_strings "race_heartbeat pair (commutative: GRL102 only)"
    [
      "warning[GRL102] monitor node0::heartbeat: key \"global::epoch_flag\" is written by \
       multiple monitors (node0::heartbeat, node1::heartbeat): last writer wins";
    ]
    (diag_strings audit);
  check_strings "no race findings" []
    (List.map Diagnostic.to_string audit.race)

(* ---------- Deterministic output ---------- *)

(* Two independent trigger cycles, defined in reverse alphabetical
   order: GRL103 must report them sorted, for byte-stable --json. *)
let test_grl103_sorted () =
  let cycle a b ka kb =
    Printf.sprintf
      {|guardrail %s { trigger: { ON_CHANGE(%s) } rule: { LOAD(load_avg) < 8 } action: { SAVE(%s, 1) } }
guardrail %s { trigger: { ON_CHANGE(%s) } rule: { LOAD(load_avg) > 2 } action: { SAVE(%s, 1) } }|}
      a kb ka b ka kb
  in
  let src = cycle "z1" "z2" "zka" "zkb" ^ "\n" ^ cycle "a1" "a2" "aka" "akb" in
  check_strings "two cycles, sorted"
    [
      "error[GRL103] monitor a1: SAVE/ON_CHANGE trigger cycle among monitors a1, a2: each \
       SAVE re-triggers the next";
      "error[GRL103] monitor z1: SAVE/ON_CHANGE trigger cycle among monitors z1, z2: each \
       SAVE re-triggers the next";
    ]
    (List.map Diagnostic.to_string (Analyze.deployment (Dataflow.fixpoint (compile_src src))))

(* Fleet qualification must rename the monitor itself, not just its
   keys — the CLI's file attribution is keyed by monitor name. *)
let test_qualify_names_monitor () =
  let src =
    {|guardrail g { trigger: { TIMER(0, 1s) } rule: { LOAD(pending) <= 10 } action: { SAVE(out, 1) } }|}
  in
  match compile_src src with
  | [ m ] ->
    let q = Monitor.qualify ~node_id:3 m in
    Alcotest.(check string) "monitor name qualified" "node3::g" q.Monitor.name
  | ms -> Alcotest.failf "expected one monitor, got %d" (List.length ms)

(* ---------- Shipped specs verify clean ---------- *)

let test_shipped_specs_verify_clean () =
  let paths =
    Sys.readdir (specs_dir "")
    |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".grd")
    |> List.sort compare
    |> List.map (Filename.concat (specs_dir ""))
  in
  check_bool "found shipped specs" true (List.length paths >= 5);
  List.iter
    (fun path ->
      check_strings path []
        (diag_strings (Audit.run (List.map (fun m -> (0, m)) (compile_file path)))))
    paths

let suite =
  [
    ( "verify.dataflow",
      [
        Alcotest.test_case "subset and widen" `Quick test_subset_widen;
        Alcotest.test_case "dataflow_chain fixpoint" `Quick test_dataflow_chain_fixpoint;
        Alcotest.test_case "GRL001 through the SAVE chain" `Quick test_dataflow_chain_golden;
        QCheck_alcotest.to_alcotest prop_fixpoint_terminates;
      ] );
    ( "verify.machine",
      [
        Alcotest.test_case "GRL201 unreachable RESTORE" `Quick test_unreachable_restore_golden;
        Alcotest.test_case "GRL202 never-promoting canary" `Quick test_never_promote_canary;
        Alcotest.test_case "GRL203 storm with schedule" `Quick test_replace_storm_golden;
        Alcotest.test_case "GRL104 superseded by proof" `Quick test_grl104_superseded;
        QCheck_alcotest.to_alcotest prop_model_matches_slot;
      ] );
    ( "verify.replay",
      [
        Alcotest.test_case "corpus schedules replay" `Quick test_storm_schedule_replays;
        QCheck_alcotest.to_alcotest prop_storm_schedules_replay;
      ] );
    ( "verify.race",
      [
        Alcotest.test_case "GRL301 non-commutative writers" `Quick test_race_budget_golden;
        Alcotest.test_case "commutative writers stay silent" `Quick
          test_race_commutative_silent;
      ] );
    ( "verify.deployment",
      [
        Alcotest.test_case "GRL103 output is sorted" `Quick test_grl103_sorted;
        Alcotest.test_case "qualify renames the monitor" `Quick test_qualify_names_monitor;
        Alcotest.test_case "shipped specs verify clean" `Quick test_shipped_specs_verify_clean;
      ] );
  ]
