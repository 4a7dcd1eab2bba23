(* Tests for gr_analysis: interval-domain unit tests, golden
   diagnostics over the specs/bad corpus (pinning codes, severities,
   positions and message text), clean-deployment checks over the
   shipped specs, and the JSON round-trip of structured output. *)

open Gr_dsl
module Lower = Gr_compiler.Lower
module Opt = Gr_compiler.Opt
module Interval = Gr_analysis.Interval
module Diagnostic = Gr_analysis.Diagnostic
module Analyze = Gr_analysis.Analyze
module Json = Gr_trace.Json

let check_bool = Alcotest.(check bool)
let check_strings = Alcotest.(check (list string))

(* Tests run from _build/default/test; fall back for odd CWDs. *)
let specs_dir sub =
  let dir = Filename.concat "../../../specs" sub in
  if Sys.file_exists dir then dir else Filename.concat "specs" sub

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* The lint pipeline: parse -> typecheck -> lower -> optimize. No
   Verify — lint must still run on monitors the verifier rejects
   (e.g. duplicate SAVE keys). *)
let compile_file path =
  let spec = Parser.parse_exn (read_file path) in
  (match Typecheck.check_spec spec with
  | Ok () -> ()
  | Error errs ->
    Alcotest.failf "%s: %s" path
      (String.concat "; " (List.map (fun e -> Format.asprintf "%a" Typecheck.pp_error e) errs)));
  List.map Opt.optimize_monitor (Lower.spec spec)

(* [grc lint]'s path: one fixpoint, then the lint passes over it. *)
let lint ?config monitors = Analyze.deployment ?config (Gr_analysis.Dataflow.fixpoint monitors)

let lint_bad ?config name = lint ?config (compile_file (Filename.concat (specs_dir "bad") name))

let golden name expected () =
  check_strings name expected (List.map Diagnostic.to_string (lint_bad name))

(* ---------- Golden diagnostics, one family per corpus file ---------- *)

let test_always_true =
  golden "always_true.grd"
    [
      "warning[GRL001] monitor count-sanity (5:31): rule is always true (value in {1}): the \
       guardrail can never fire";
    ]

let test_always_false =
  golden "always_false.grd"
    [
      "warning[GRL002] monitor impossible-floor (5:31): rule is always false (value in {0}): \
       the guardrail fires on every check";
    ]

let test_div_by_zero =
  golden "div_by_zero.grd"
    [
      "error[GRL003] monitor backlog-ratio (6:25): divisor is always 0; the VM defines x / 0 = \
       0, so this quotient is constantly 0";
    ]

let test_div_may_zero =
  golden "div_may_zero.grd"
    [
      "warning[GRL003] monitor drops-per-req (5:27): divisor may be 0 (divisor in [0, +oo)); \
       the VM silently yields 0 for x / 0";
    ]

let test_disjoint_compare =
  golden "disjoint_compare.grd"
    [
      "warning[GRL004] monitor watches-toggle (12:28): comparison is always false: left in \
       {0}, right in {2}";
    ]

let test_nan_compare =
  golden "nan_compare.grd"
    [
      "warning[GRL005] monitor overflow-probe (6:39): left operand of < may be NaN; NaN makes \
       every comparison false (except <>)";
    ]

let test_dup_save =
  golden "dup_save.grd"
    [
      "error[GRL101] monitor double-write (3:1): duplicate SAVE key \"io_limit\": only the \
       last write survives a check";
    ]

let test_save_conflict =
  golden "save_conflict.grd"
    [
      "warning[GRL102] monitor throttle-down: key \"io_limit\" is written by multiple \
       monitors (throttle-down, throttle-up): last writer wins";
    ]

let test_cascade_cycle =
  golden "cascade_cycle.grd"
    [
      "error[GRL103] monitor scale-down: SAVE/ON_CHANGE trigger cycle among monitors \
       scale-down, scale-up: each SAVE re-triggers the next";
    ]

let test_replace_flap =
  golden "replace_flap.grd"
    [
      "warning[GRL104] monitor latency-guard: policy \"linnos\" is REPLACEd by latency-guard \
       and RESTOREd by recovery: opposing actions can flap";
    ]

let test_hook_budget =
  golden "hook_budget.grd"
    [
      "error[GRL105] monitor p50-watch: hook \"blk:io_submit\": cumulative static cost 676ns \
       of 4 monitor(s) (p50-watch, p70-watch, p90-watch, p99-watch) exceeds the 500ns budget";
    ]

(* ---------- Fleet scoping (grc lint --fleet) ---------- *)

let compile_src src =
  let spec = Parser.parse_exn src in
  (match Typecheck.check_spec spec with
  | Ok () -> ()
  | Error errs ->
    Alcotest.failf "inline spec: %s"
      (String.concat "; " (List.map (fun e -> Format.asprintf "%a" Typecheck.pp_error e) errs)));
  List.map Opt.optimize_monitor (Lower.spec spec)

let test_fleet_qualify_unconflates () =
  let node name key =
    Printf.sprintf
      {|guardrail %s { trigger: { TIMER(0, 1s) } rule: { LOAD(pending) <= 10 } action: { SAVE(%s, 1) } }|}
      name key
  in
  (* Two nodes shipping near-identical specs: analysed flat, lint sees
     one "io_limit" cell written by both monitors. *)
  let a = compile_src (node "ga" "io_limit") and b = compile_src (node "gb" "io_limit") in
  check_bool "unscoped same-named keys conflict (GRL102)" true
    (List.exists (fun (d : Diagnostic.t) -> d.code = "GRL102") (lint (a @ b)));
  (* --fleet qualifies node-local keys per file: the writes land on
     distinct per-node cells and the conflict disappears. *)
  let qualify id = List.map (Gr_compiler.Monitor.qualify ~node_id:id) in
  check_strings "node-qualified keys do not collide" []
    (List.map Diagnostic.to_string (lint (qualify 0 a @ qualify 1 b)));
  (* GLOBAL keys name one shared cell, so they must keep conflicting
     even across node-qualified deployments. *)
  let ag = compile_src (node "ga" "GLOBAL(io_limit)")
  and bg = compile_src (node "gb" "GLOBAL(io_limit)") in
  check_bool "global keys still conflict across nodes" true
    (List.exists
       (fun (d : Diagnostic.t) -> d.code = "GRL102")
       (lint (qualify 0 ag @ qualify 1 bg)))

let test_hook_budget_configurable () =
  let diags = lint_bad ~config:{ Analyze.hook_budget_ns = 10_000. } "hook_budget.grd" in
  check_strings "raised budget silences GRL105" [] (List.map Diagnostic.to_string diags)

(* ---------- Shipped specs must stay clean ---------- *)

let shipped_specs () =
  Sys.readdir (specs_dir "")
  |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".grd")
  |> List.sort compare
  |> List.map (Filename.concat (specs_dir ""))

let test_shipped_specs_clean () =
  let paths = shipped_specs () in
  check_bool "found shipped specs" true (List.length paths >= 5);
  (* Individually... *)
  List.iter
    (fun path ->
      check_strings path []
        (List.map Diagnostic.to_string (lint (compile_file path))))
    paths;
  (* ...and deployed together (interference analysis included). *)
  let all = List.concat_map compile_file paths in
  check_strings "whole shipped deployment" []
    (List.map Diagnostic.to_string (lint all))

(* ---------- JSON round-trip ---------- *)

let bad_corpus =
  [
    "always_true.grd"; "always_false.grd"; "div_by_zero.grd"; "div_may_zero.grd";
    "disjoint_compare.grd"; "nan_compare.grd"; "dup_save.grd"; "save_conflict.grd";
    "cascade_cycle.grd"; "replace_flap.grd"; "hook_budget.grd";
  ]

let test_json_round_trip () =
  let diags = List.concat_map lint_bad bad_corpus in
  check_bool "corpus produces diagnostics" true (List.length diags >= 11);
  List.iter
    (fun d ->
      let j = Diagnostic.to_json d in
      match Json.parse (Json.to_string j) with
      | Ok j' -> check_bool (Diagnostic.to_string d) true (Json.equal j j')
      | Error e -> Alcotest.failf "unparseable JSON for %s: %s" (Diagnostic.to_string d) e)
    diags

let test_json_fields () =
  match lint_bad "div_by_zero.grd" with
  | [ d ] ->
    let j = Diagnostic.to_json d in
    let str k = Option.bind (Json.member k j) Json.string_value in
    let num k = Option.bind (Json.member k j) Json.int_value in
    Alcotest.(check (option string)) "severity" (Some "error") (str "severity");
    Alcotest.(check (option string)) "code" (Some "GRL003") (str "code");
    Alcotest.(check (option string)) "monitor" (Some "backlog-ratio") (str "monitor");
    Alcotest.(check (option int)) "line" (Some 6) (num "line");
    Alcotest.(check (option int)) "col" (Some 25) (num "col")
  | ds -> Alcotest.failf "expected exactly one diagnostic, got %d" (List.length ds)

(* ---------- Interval domain unit tests ---------- *)

let test_interval_arith () =
  let i = Interval.add (Interval.const 1.) (Interval.const 2.) in
  check_bool "1+2 = {3}" true (Interval.equal i (Interval.const 3.));
  let z = Interval.div (Interval.const 1.) (Interval.const 0.) in
  check_bool "VM x/0 = 0" true (Interval.equal z (Interval.const 0.));
  let nan_av = Interval.add (Interval.const infinity) (Interval.const neg_infinity) in
  check_bool "inf + -inf may be NaN" true (Interval.may_nan nan_av);
  let m = Interval.mul (Interval.finite 0. infinity) (Interval.const 0.) in
  check_bool "[0,+oo) * {0} = {0}" true (Interval.must_zero m)

let test_interval_cmp () =
  let nonneg = Interval.finite 0. infinity in
  check_bool "count >= 0 always true" true
    (Interval.always_true (Interval.cmp Ast.Ge nonneg (Interval.const 0.)));
  check_bool "count < 0 always false" true
    (Interval.always_false (Interval.cmp Ast.Lt nonneg (Interval.const 0.)));
  let nan_av = Interval.const nan in
  check_bool "NaN == x always false" true
    (Interval.always_false (Interval.cmp Ast.Eq nan_av Interval.unknown));
  check_bool "NaN <> x always true" true
    (Interval.always_true (Interval.cmp Ast.Ne nan_av Interval.unknown));
  check_bool "unknown comparison undecided" true
    (let v = Interval.cmp Ast.Lt Interval.unknown (Interval.const 5.) in
     Interval.may_true v && Interval.may_false v)

let test_interval_join_truthiness () =
  let j = Interval.join (Interval.const 0.) (Interval.const 1.) in
  check_bool "join {0} {1} may be false" true (Interval.may_false j);
  check_bool "join {0} {1} may be true" true (Interval.may_true j);
  check_bool "infinity is truthy" true (Interval.always_true (Interval.const infinity));
  check_bool "NaN is truthy" true (Interval.always_true (Interval.const nan));
  check_bool "not 0 is true" true (Interval.always_true (Interval.not_ (Interval.const 0.)))

let suite =
  [
    ( "lint.interval",
      [
        Alcotest.test_case "arithmetic" `Quick test_interval_arith;
        Alcotest.test_case "comparisons" `Quick test_interval_cmp;
        Alcotest.test_case "join and truthiness" `Quick test_interval_join_truthiness;
      ] );
    ( "lint.golden",
      [
        Alcotest.test_case "GRL001 always-true rule" `Quick test_always_true;
        Alcotest.test_case "GRL002 always-false rule" `Quick test_always_false;
        Alcotest.test_case "GRL003 certain div-by-zero" `Quick test_div_by_zero;
        Alcotest.test_case "GRL003 possible div-by-zero" `Quick test_div_may_zero;
        Alcotest.test_case "GRL004 constant comparison" `Quick test_disjoint_compare;
        Alcotest.test_case "GRL005 NaN comparison" `Quick test_nan_compare;
        Alcotest.test_case "GRL101 duplicate SAVE" `Quick test_dup_save;
        Alcotest.test_case "GRL102 SAVE conflict" `Quick test_save_conflict;
        Alcotest.test_case "GRL103 trigger cycle" `Quick test_cascade_cycle;
        Alcotest.test_case "GRL104 REPLACE/RESTORE flap" `Quick test_replace_flap;
        Alcotest.test_case "GRL105 hook budget" `Quick test_hook_budget;
        Alcotest.test_case "hook budget is configurable" `Quick test_hook_budget_configurable;
      ] );
    ( "lint.deployment",
      [
        Alcotest.test_case "shipped specs stay clean" `Quick test_shipped_specs_clean;
        Alcotest.test_case "fleet scoping unconflates node keys" `Quick
          test_fleet_qualify_unconflates;
      ] );
    ( "lint.json",
      [
        Alcotest.test_case "diagnostics round-trip" `Quick test_json_round_trip;
        Alcotest.test_case "field layout" `Quick test_json_fields;
      ] );
  ]
