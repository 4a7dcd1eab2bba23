(* Tests for the Guardrails facade: deployment wiring, rollback,
   runtime guardrail replacement, and threshold autotuning. *)

open Gr_util
module Engine = Gr_runtime.Engine

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let make_deployment ?(seed = 3) () =
  let kernel = Gr_kernel.Kernel.create ~seed in
  (kernel, Guardrails.Deployment.create ~kernel ())

let rail ?(name = "g") ~rule () =
  Printf.sprintf
    {|guardrail %s { trigger: { TIMER(0, 10ms) } rule: { %s } action: { REPORT("v") } }|} name rule

(* ---------- Deployment ---------- *)

let test_install_rollback_on_error () =
  let _, d = make_deployment () in
  (* Second guardrail fails verification (unbounded window); the
     first must be rolled back. *)
  let src = rail ~name:"ok" ~rule:"LOAD(a) < 1" () ^ "\n" ^ rail ~name:"bad" ~rule:"AVG(x, 3600s) < 1" () in
  (match Guardrails.Deployment.install_source d src with
  | Ok _ -> Alcotest.fail "expected failure"
  | Error _ -> ());
  check_int "nothing left installed" 0 (List.length (Guardrails.Deployment.installed_monitors d))

let test_uninstall_removes_from_inventory () =
  let kernel, d = make_deployment () in
  Guardrails.Deployment.save d "a" 0.;
  let handles = Guardrails.Deployment.install_source_exn d (rail ~rule:"LOAD(a) == 0" ()) in
  check_int "installed" 1 (List.length (Guardrails.Deployment.installed_monitors d));
  Guardrails.Deployment.uninstall d (List.hd handles);
  check_int "inventory empty" 0 (List.length (Guardrails.Deployment.installed_monitors d));
  (* And disarmed: no checks accumulate. *)
  Gr_kernel.Kernel.run_until kernel (Time_ns.ms 100);
  check_int "no checks after uninstall" 0
    (Engine.Stats.get (Guardrails.Deployment.engine d) (List.hd handles)).checks

let test_hot_replacement () =
  (* §6: update guardrails at runtime without a reboot. Tighten the
     rule mid-run; the new monitor starts checking, the old stops. *)
  let kernel, d = make_deployment () in
  Guardrails.Deployment.save d "lat" 50.;
  let loose = List.hd (Guardrails.Deployment.install_source_exn d (rail ~rule:"LOAD(lat) < 100" ())) in
  Gr_kernel.Kernel.run_until kernel (Time_ns.ms 50);
  check_int "loose rule healthy" 0 (Engine.Stats.get (Guardrails.Deployment.engine d) loose).violations;
  Guardrails.Deployment.uninstall d loose;
  let tight =
    List.hd
      (Guardrails.Deployment.install_source_exn d (rail ~name:"g2" ~rule:"LOAD(lat) < 40" ()))
  in
  Gr_kernel.Kernel.run_until kernel (Time_ns.ms 100);
  check_bool "tight rule fires" true
    ((Engine.Stats.get (Guardrails.Deployment.engine d) tight).violations > 0);
  check_int "old monitor stayed quiet" 0
    (Engine.Stats.get (Guardrails.Deployment.engine d) loose).violations

let test_forward_hook_arg_custom_key () =
  let kernel, d = make_deployment () in
  Guardrails.Deployment.forward_hook_arg d ~hook:"h" ~arg:"x" ~key:"renamed" ();
  Gr_kernel.Hooks.fire kernel.hooks "h" [ ("x", 5.) ];
  Gr_kernel.Hooks.fire kernel.hooks "h" [ ("other", 9.) ];
  Alcotest.(check (float 1e-9)) "forwarded under new key" 5.
    (Guardrails.Store.load (Guardrails.Deployment.store d) "renamed")

let test_derive_window_avg () =
  let kernel, d = make_deployment () in
  ignore
    (Gr_sim.Engine.every kernel.engine ~interval:(Time_ns.ms 10) (fun _ ->
         Guardrails.Deployment.save d "marker" 1.)
      : Gr_sim.Engine.handle);
  Guardrails.Deployment.derive_window_avg d ~src:"marker" ~dst:"marker_rate"
    ~window:(Time_ns.ms 100) ~every:(Time_ns.ms 50);
  Gr_kernel.Kernel.run_until kernel (Time_ns.ms 300);
  Alcotest.(check (float 1e-9)) "average of 1-valued markers" 1.
    (Guardrails.Store.load (Guardrails.Deployment.store d) "marker_rate")

let test_shipped_specs_compile () =
  (* Every .grd under specs/ must pass the full pipeline. *)
  let dir = "../../../specs" in
  let dir = if Sys.file_exists dir then dir else "specs" in
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".grd")
  in
  check_bool "found shipped specs" true (List.length files >= 4);
  List.iter
    (fun f ->
      let path = Filename.concat dir f in
      let ic = open_in_bin path in
      let src =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      match Guardrails.Compile.source src with
      | Ok monitors -> check_bool (f ^ " yields monitors") true (monitors <> [])
      | Error e -> Alcotest.failf "%s: %s" f (Format.asprintf "%a" Guardrails.Compile.pp_error e))
    files

let test_engine_report () =
  let kernel, d = make_deployment () in
  Guardrails.Deployment.save d "a" 5.;
  ignore (Guardrails.Deployment.install_source_exn d (rail ~rule:"LOAD(a) < 1" ())
      : Engine.handle list);
  Gr_kernel.Kernel.run_until kernel (Time_ns.ms 50);
  let report = Format.asprintf "%a" Engine.pp_report (Guardrails.Deployment.engine d) in
  let contains needle =
    let n = String.length needle and h = String.length report in
    let rec scan i = i + n <= h && (String.sub report i n = needle || scan (i + 1)) in
    scan 0
  in
  check_bool "report names the monitor" true (contains "g");
  check_bool "report flags the violation state" true (contains "VIOLATED");
  check_bool "report lists recent violations" true (contains "v")

(* ---------- One deployment per kernel ---------- *)

(* The kernel's hook table and sim engine carry one tracer each, so a
   second deployment on the same kernel is refused outright and the
   first keeps both channels. *)
let test_second_deployment_raises () =
  let kernel = Gr_kernel.Kernel.create ~seed:3 in
  let d1 = Guardrails.Deployment.create ~kernel ~tracing:true () in
  (match Guardrails.Deployment.create ~kernel ~tracing:true () with
  | _ -> Alcotest.fail "a second deployment on one kernel was accepted"
  | exception Invalid_argument _ -> ());
  check_bool "first deployment keeps the hook channel" true
    (match Gr_kernel.Hooks.tracer kernel.hooks with
    | Some tr -> tr == Guardrails.Deployment.tracer d1
    | None -> false)

(* ---------- Fleet ---------- *)

let test_fleet_scoped_views () =
  let fleet = Guardrails.Fleet.create ~nodes:3 ~seed:7 () in
  let node_store i = Guardrails.Deployment.store (Guardrails.Fleet.node fleet i) in
  (* The same key name on different nodes stays distinct per shard... *)
  Array.iteri
    (fun i n -> Guardrails.Store.save (Guardrails.Deployment.store n) "lat" (float_of_int (10 * (i + 1))))
    (Guardrails.Fleet.nodes fleet);
  let agg st fn = Guardrails.Store.aggregate st ~key:"lat" ~fn ~window_ns:1e9 ~param:0. in
  Alcotest.(check (float 1e-9)) "node 0 sees only its own value" 10.
    (Guardrails.Store.load (node_store 0) "lat");
  Alcotest.(check (float 1e-9)) "node shard holds one sample" 1.
    (agg (node_store 1) Gr_dsl.Ast.Count);
  (* ...while the fleet store presents the merged all-shards view. *)
  let fs = Guardrails.Fleet.store fleet in
  Alcotest.(check (float 1e-9)) "fleet merged count" 3. (agg fs Gr_dsl.Ast.Count);
  Alcotest.(check (float 1e-9)) "fleet merged sum" 60. (agg fs Gr_dsl.Ast.Sum);
  Alcotest.(check (float 1e-9)) "fleet merged max" 30. (agg fs Gr_dsl.Ast.Max);
  (* GLOBAL(key) is one value, visible from every member. *)
  Guardrails.Fleet.save_global fleet "pressure" 7.;
  Alcotest.(check (float 1e-9)) "global readable at the fleet tier" 7.
    (Guardrails.Fleet.load_global fleet "pressure");
  Alcotest.(check (float 1e-9)) "global readable from a node shard" 7.
    (Guardrails.Store.load (node_store 2) (Gr_dsl.Ast.global_key "pressure"))

let test_fleet_global_on_change () =
  let fleet = Guardrails.Fleet.create ~nodes:2 ~seed:7 () in
  let src =
    {|guardrail pressure-watch { trigger: { ON_CHANGE(GLOBAL(pressure)) } rule: { LOAD(GLOBAL(pressure)) < 1 } action: { REPORT("pressure", GLOBAL(pressure)) } }|}
  in
  let node_handles =
    Array.map
      (fun n -> List.hd (Guardrails.Deployment.install_source_exn n src))
      (Guardrails.Fleet.nodes fleet)
  in
  let fleet_handle = List.hd (Guardrails.Fleet.install_source_exn fleet src) in
  (* One global save wakes the ON_CHANGE monitors on the control
     engine AND on every node engine. *)
  Guardrails.Fleet.save_global fleet "pressure" 5.;
  Array.iteri
    (fun i n ->
      check_bool
        (Printf.sprintf "node %d monitor woke on the global save" i)
        true
        ((Engine.Stats.get (Guardrails.Deployment.engine n) node_handles.(i)).violations > 0))
    (Guardrails.Fleet.nodes fleet);
  check_bool "fleet monitor fired too" true
    ((Engine.Stats.get (Guardrails.Fleet.engine fleet) fleet_handle).violations > 0)

let test_fleet_canary_replace_and_retrain_once () =
  let fleet = Guardrails.Fleet.create ~nodes:3 ~seed:7 () in
  let replaced = Array.make 3 0 and retrained = Array.make 3 0 in
  Array.iteri
    (fun i n ->
      Gr_kernel.Kernel.register_policy (Guardrails.Deployment.kernel n) ~name:"p"
        ~replace:(fun () -> replaced.(i) <- replaced.(i) + 1)
        ~restore:(fun () -> ())
        ~retrain:(fun () -> retrained.(i) <- retrained.(i) + 1)
        ())
    (Guardrails.Fleet.nodes fleet);
  Guardrails.Fleet.set_canary fleet ~policy:"p" [ 1 ];
  ignore
    (Guardrails.Fleet.install_source_exn fleet
       {|guardrail g { trigger: { TIMER(0, 10ms, 15ms) } rule: { LOAD(healthy) == 1 } action: { REPLACE("p"); RETRAIN("p") } }|}
      : Engine.handle list);
  Guardrails.Fleet.run_until fleet (Time_ns.ms 30);
  (* TIMER(0, 10ms, 15ms) fires at 0 and 10ms: two canaried REPLACEs,
     delivered to node 1 only. *)
  check_int "canary node replaced twice" 2 replaced.(1);
  check_int "node 0 untouched" 0 replaced.(0);
  check_int "node 2 untouched" 0 replaced.(2);
  check_int "per-node deliveries counted" 2 (Guardrails.Fleet.replaces fleet);
  (* RETRAIN is async (retrain_delay) and global: it trains once, on
     the lowest-id owner, and pushes the model to the other owners. *)
  check_int "no retrain yet" 0 (retrained.(0) + retrained.(1) + retrained.(2));
  Guardrails.Fleet.run_until fleet (Time_ns.ms 100);
  check_int "trainer is node 0" 1 retrained.(0);
  check_int "others get pushes, not retrains" 0 (retrained.(1) + retrained.(2));
  check_int "one global retrain round" 1 (Guardrails.Fleet.retrains fleet);
  check_int "model pushed to the two other owners" 2 (Guardrails.Fleet.model_pushes fleet)

(* ---------- memory at creation ---------- *)

(* Words [f]'s result keeps live, after a full major collection. *)
let live_words f =
  Gc.full_major ();
  let w0 = (Gc.stat ()).Gc.live_words in
  let x = f () in
  Gc.full_major ();
  let w1 = (Gc.stat ()).Gc.live_words in
  ignore (Sys.opaque_identity x : _);
  w1 - w0

(* Untraced, nothing is buffered yet, so the trace and report sinks
   must hold a few slots, not their capacity. Sinks allocated up front
   (65,536 + 16,384 slots per tracer: 82k words for a deployment, 5.4M
   for the fleet) fail both bounds, which are about twice what growable
   sinks measure (409 words for a deployment with its kernel, 28.9k for
   the 64-node fleet). *)
let test_creation_live_words () =
  let d = live_words (fun () -> make_deployment ()) in
  let f = live_words (fun () -> Guardrails.Fleet.create ~nodes:64 ~seed:7 ()) in
  check_bool (Printf.sprintf "untraced deployment: %d live words" d) true (d < 1_000);
  check_bool (Printf.sprintf "64-node fleet: %d live words" f) true (f < 60_000)

(* ---------- Autotune ---------- *)

let autotune_source ~hi =
  Printf.sprintf
    {|guardrail auto-latency { trigger: { TIMER(0, 50ms) } rule: { QUANTILE(lat, 0.99, 500ms) <= %g } action: { REPORT("tail latency", lat) } }|}
    hi

let feed_latency kernel d ~mean =
  let rng = Rng.fork kernel.Gr_kernel.Kernel.rng in
  ignore
    (Gr_sim.Engine.every kernel.Gr_kernel.Kernel.engine ~interval:(Time_ns.ms 2) (fun _ ->
         Guardrails.Deployment.save d "lat" (Float.max 0. (Rng.gaussian rng ~mu:mean ~sigma:(mean /. 10.))))
      : Gr_sim.Engine.handle)

let test_autotune_calibrates_and_detects () =
  let kernel, d = make_deployment () in
  feed_latency kernel d ~mean:100.;
  let tuner =
    Guardrails.Autotune.deploy d ~key:"lat" ~quantile:0.99 ~slack:2.0 ~warmup:(Time_ns.sec 1)
      ~tighten_every:(Time_ns.sec 1) ~make_source:(fun ~hi -> autotune_source ~hi) ()
  in
  check_bool "not installed during warmup" true (Guardrails.Autotune.handle tuner = None);
  Gr_kernel.Kernel.run_until kernel (Time_ns.ms 1100);
  (match Guardrails.Autotune.current_bound tuner with
  | Some bound -> check_bool "bound near 2x p99(~120)" true (bound > 150. && bound < 350.)
  | None -> Alcotest.fail "no bound after warmup");
  (* Healthy traffic stays under the calibrated bound... *)
  Gr_kernel.Kernel.run_until kernel (Time_ns.sec 3);
  let h = Option.get (Guardrails.Autotune.handle tuner) in
  check_int "no violations on calibration traffic" 0
    (Engine.Stats.get (Guardrails.Deployment.engine d) h).violations;
  (* ...and a 5x latency regression trips it. *)
  feed_latency kernel d ~mean:500.;
  Gr_kernel.Kernel.run_until kernel (Time_ns.sec 5);
  let h = Option.get (Guardrails.Autotune.handle tuner) in
  check_bool "regression detected with auto bound" true
    ((Engine.Stats.get (Guardrails.Deployment.engine d) h).violations > 0)

let test_autotune_tightens_but_never_loosens () =
  let kernel, d = make_deployment () in
  feed_latency kernel d ~mean:100.;
  let tuner =
    Guardrails.Autotune.deploy d ~key:"lat" ~warmup:(Time_ns.ms 500)
      ~tighten_every:(Time_ns.ms 500) ~make_source:(fun ~hi -> autotune_source ~hi) ()
  in
  Gr_kernel.Kernel.run_until kernel (Time_ns.sec 1);
  let first = Option.get (Guardrails.Autotune.current_bound tuner) in
  (* Faster traffic: the bound should tighten. *)
  feed_latency kernel d ~mean:20.;
  Gr_kernel.Kernel.run_until kernel (Time_ns.sec 4);
  let tightened = Option.get (Guardrails.Autotune.current_bound tuner) in
  check_bool "tightened" true (tightened < first);
  check_bool "tightenings counted" true (Guardrails.Autotune.tightenings tuner >= 1);
  (* Slow traffic again: the bound must NOT loosen. *)
  feed_latency kernel d ~mean:100.;
  Gr_kernel.Kernel.run_until kernel (Time_ns.sec 7);
  let final = Option.get (Guardrails.Autotune.current_bound tuner) in
  check_bool "never loosens" true (final <= tightened +. 1e-9);
  (* Inventory holds exactly the one live autotuned monitor. *)
  check_int "single live monitor" 1 (List.length (Guardrails.Deployment.installed_monitors d))

let suite =
  [
    ( "core.deployment",
      [
        Alcotest.test_case "install rollback" `Quick test_install_rollback_on_error;
        Alcotest.test_case "uninstall removes from inventory" `Quick
          test_uninstall_removes_from_inventory;
        Alcotest.test_case "hot replacement" `Quick test_hot_replacement;
        Alcotest.test_case "forward_hook_arg custom key" `Quick test_forward_hook_arg_custom_key;
        Alcotest.test_case "derive_window_avg" `Quick test_derive_window_avg;
        Alcotest.test_case "shipped specs compile" `Quick test_shipped_specs_compile;
        Alcotest.test_case "engine report" `Quick test_engine_report;
        Alcotest.test_case "creation keeps few live words" `Quick test_creation_live_words;
        Alcotest.test_case "a second deployment on one kernel raises" `Quick
          test_second_deployment_raises;
      ] );
    ( "core.fleet",
      [
        Alcotest.test_case "scoped store views" `Quick test_fleet_scoped_views;
        Alcotest.test_case "global on-change wakes every engine" `Quick
          test_fleet_global_on_change;
        Alcotest.test_case "canaried replace, retrain-once" `Quick
          test_fleet_canary_replace_and_retrain_once;
      ] );
    ( "core.autotune",
      [
        Alcotest.test_case "calibrates and detects" `Quick test_autotune_calibrates_and_detects;
        Alcotest.test_case "tightens, never loosens" `Quick test_autotune_tightens_but_never_loosens;
      ] );
  ]
