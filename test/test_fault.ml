(* gr_fault: fault plans, the injector, the chaos-soak harness, and
   end-to-end corrective-action behaviour under injected faults. *)

open Gr_util
module Fault = Gr_fault.Fault
module Injector = Gr_fault.Injector
module Soak = Gr_fault.Soak
module Kernel = Gr_kernel.Kernel
module Ssd = Gr_kernel.Ssd
module Blk = Gr_kernel.Blk
module Sched = Gr_kernel.Sched
module Slot = Gr_kernel.Policy_slot
module Store = Gr_runtime.Feature_store
module Rt = Gr_runtime.Engine
module D = Guardrails.Deployment

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Fault plans                                                        *)
(* ------------------------------------------------------------------ *)

let full_caps =
  {
    Fault.n_devices = 3;
    keys = [ "lat"; "err"; "false_submit_rate" ];
    hooks = [ "blk:io_complete"; "sched:dispatch" ];
    blk_policy = true;
  }

let test_plan_roundtrip () =
  for seed = 0 to 49 do
    let rng = Rng.create seed in
    let plan = Fault.gen ~rng ~caps:full_caps ~n:8 ~horizon:(Time_ns.sec 2) in
    match Fault.plan_of_string (Fault.plan_to_string plan) with
    | Ok plan' ->
      check
        (Printf.sprintf "seed %d: parse(print(plan)) = plan" seed)
        true (plan = plan')
    | Error e -> Alcotest.failf "seed %d: round-trip failed to parse: %s" seed e
  done;
  (* Hook names contain ':', adversarial values contain '-' and 'e'. *)
  let hairy =
    [
      { Fault.at = 1; kind = Fault.Hook_exn { hook = "blk:io_complete"; count = 3 } };
      { Fault.at = 2; kind = Fault.Corrupt_key { key = "lat"; corruption = Fault.Value (-1.32e9) } };
      { Fault.at = 3; kind = Fault.Corrupt_key { key = "err"; corruption = Fault.Nan } };
    ]
  in
  check "hairy plan round-trips" true
    (Fault.plan_of_string (Fault.plan_to_string hairy) = Ok hairy);
  check "empty plan round-trips" true (Fault.plan_of_string "" = Ok [])

let test_plan_parse_errors () =
  let one_line = function
    | Error e -> not (String.contains e '\n')
    | Ok _ -> false
  in
  check "garbage is a one-line error" true (one_line (Fault.plan_of_string "bogus"));
  check "unknown kind is a one-line error" true
    (one_line (Fault.plan_of_string "meteor@5:dev=1"));
  check "bad corruption value is a one-line error" true
    (one_line (Fault.plan_of_string "corrupt@5:key=k,v=zzz"));
  check "missing args is a one-line error" true (one_line (Fault.plan_of_string "gc-storm@5:dev=1"))

let test_gen_deterministic () =
  let plan_of seed =
    Fault.gen ~rng:(Rng.create seed) ~caps:full_caps ~n:6 ~horizon:(Time_ns.sec 1)
  in
  check "same seed, same plan" true (plan_of 7 = plan_of 7);
  check "different seeds differ" true (plan_of 7 <> plan_of 8)

(* ------------------------------------------------------------------ *)
(* Injector and soak harness                                          *)
(* ------------------------------------------------------------------ *)

let test_inapplicable_faults_skipped () =
  (* The store scenario has no devices and no block-policy slot. *)
  let plan =
    [
      { Fault.at = Time_ns.ms 50; kind = Fault.Gc_storm { device = 0; duration = Time_ns.ms 40 } };
      { Fault.at = Time_ns.ms 60; kind = Fault.Policy_chaos { chaos = Fault.Flip } };
    ]
  in
  let r =
    Soak.run_one ~scenario:"store" ~seed:5 ~duration:(Time_ns.of_float_sec 0.2) ~plan ()
  in
  check "run is clean" true r.Soak.ok;
  check_int "both faults skipped" 2 r.Soak.faults_skipped;
  check_int "none applied" 0 r.Soak.faults_injected

let test_run_bit_deterministic () =
  (* NaN-free plan so Event.equal's float comparison is exact. *)
  let plan =
    [
      { Fault.at = Time_ns.ms 50; kind = Fault.Corrupt_key { key = "lat"; corruption = Fault.Huge } };
      { Fault.at = Time_ns.ms 100; kind = Fault.Evict_burst { key = "rate"; burst = 200 } };
      { Fault.at = Time_ns.ms 120; kind = Fault.Hook_exn { hook = "soak:tick"; count = 2 } };
      { Fault.at = Time_ns.ms 150; kind = Fault.Clock_skew { by = Time_ns.ms 20 } };
    ]
  in
  let run () = Soak.run_one ~scenario:"store" ~seed:11 ~duration:(Time_ns.of_float_sec 0.3) ~plan () in
  let a = run () and b = run () in
  check "both runs clean" true (a.Soak.ok && b.Soak.ok);
  check_int "same event count" a.Soak.events b.Soak.events;
  check_int "same check count" a.Soak.checks b.Soak.checks;
  check_int "same trace length" (List.length a.Soak.trace) (List.length b.Soak.trace);
  check "trace streams are identical" true
    (List.equal Gr_trace.Event.equal a.Soak.trace b.Soak.trace)

let test_soak_smoke () =
  let r =
    Soak.soak ~scenarios:[ "store" ] ~seeds:[ 1; 2 ] ~duration:(Time_ns.of_float_sec 0.3) ()
  in
  check_int "two runs" 2 r.Soak.runs;
  check_int "both passed" 2 r.Soak.passed;
  check "faults were injected" true (r.Soak.total_faults > 0)

let test_shrink_minimal () =
  let is_corrupt = function { Fault.kind = Fault.Corrupt_key _; _ } -> true | _ -> false in
  let still_fails plan = List.exists is_corrupt plan in
  let rng = Rng.create 42 in
  let plan =
    Fault.gen ~rng ~caps:full_caps ~n:16 ~horizon:(Time_ns.sec 2)
    @ [
        { Fault.at = Time_ns.ms 10; kind = Fault.Corrupt_key { key = "lat"; corruption = Fault.Nan } };
        { Fault.at = Time_ns.ms 20; kind = Fault.Corrupt_key { key = "err"; corruption = Fault.Huge } };
      ]
  in
  check "full plan satisfies the predicate" true (still_fails plan);
  let shrunk = Soak.shrink ~still_fails plan in
  check_int "shrunk to a single fault" 1 (List.length shrunk);
  check "the survivor is a corruption" true (List.for_all is_corrupt shrunk);
  check "empty plan stays empty" true (Soak.shrink ~still_fails:(fun _ -> true) [] = [])

let test_repro_command_shape () =
  let f =
    {
      Soak.scenario = "store";
      seed = 9;
      duration = Time_ns.of_float_sec 0.5;
      nodes = 3;
      domains = 1;
      engine = None;
      spec = None;
      plan = [];
      shrunk =
        [ { Fault.at = Time_ns.ms 50; kind = Fault.Corrupt_key { key = "lat"; corruption = Fault.Huge } } ];
      problems = [ "x" ];
    }
  in
  let cmd = Soak.repro_command f in
  let contains_in hay needle =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  let contains = contains_in cmd in
  check "names the scenario" true (contains "--scenario store");
  check "names the seed" true (contains "--seed 9");
  check "carries the shrunk plan" true (contains (Fault.plan_to_string f.Soak.shrunk));
  check "sequential repro omits --domains" false (contains "--domains");
  check "parallel repro pins --domains" true
    (contains_in (Soak.repro_command { f with Soak.domains = 4 }) "--domains 4")

(* A failure found on a 4-node fleet must replay on 4 nodes: the repro
   line pins the fleet size and a non-default tier, not just the plan.
   Soak records both from its own arguments; the store scenario keeps
   the real run cheap (a bad extra spec makes every run fail). *)
let test_repro_command_pins_fleet_shape () =
  let contains_in hay needle =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  let r =
    Soak.soak ~extra_spec:("specs/broken.grd", "guardrail broken {") ~nodes:4
      ~engine:Gr_runtime.Vm.Tree
      ~scenarios:[ "store" ] ~seeds:[ 1 ] ~duration:(Time_ns.ms 50) ()
  in
  match r.Soak.failures with
  | [ f ] ->
    check_int "failure records --nodes" 4 f.Soak.nodes;
    check "failure records --engine" true (f.Soak.engine = Some Gr_runtime.Vm.Tree);
    let fleet = Soak.repro_command { f with Soak.scenario = "fleet" } in
    check "names the fleet scenario" true (contains_in fleet "--scenario fleet");
    check "4-node fleet repro pins --nodes 4" true (contains_in fleet "--nodes 4");
    check "tree-tier repro pins --engine tree" true (contains_in fleet "--engine tree");
    check "spec-caused failure replays its --spec" true
      (contains_in fleet "--spec 'specs/broken.grd'");
    let default =
      Soak.repro_command { f with Soak.nodes = 3; engine = Some Gr_runtime.Vm.Jit; spec = None }
    in
    check "default fleet size omits --nodes" false (contains_in default "--nodes");
    check "default tier omits --engine" false (contains_in default "--engine");
    check "no extra spec omits --spec" false (contains_in default "--spec")
  | fs -> Alcotest.failf "expected one failure, got %d" (List.length fs)

(* ------------------------------------------------------------------ *)
(* Corrective actions end-to-end under injected faults                *)
(* ------------------------------------------------------------------ *)

(* Each test: a healthy deployment, one guardrail, one injected fault
   that trips it, and an assertion on the *subsystem* effect — not
   just the engine's counters. *)

let corrupt_err_at ms =
  [ { Fault.at = Time_ns.ms ms; kind = Fault.Corrupt_key { key = "err"; corruption = Fault.Huge } } ]

let test_e2e_report () =
  let kernel = Kernel.create ~seed:101 in
  let d = D.create ~kernel () in
  ignore
    (D.install_source_exn d
       {|
guardrail err-bound {
  trigger: { TIMER(0, 10ms) },
  rule: { LOAD(err) <= 100 },
  action: { REPORT("err out of range", err) }
}|}
      : Rt.handle list);
  Store.save (D.store d) "err" 1.;
  let inj = Injector.create ~kernel ~tracer:(D.tracer d) ~store:(D.store d) ~seed:101 () in
  Injector.arm inj (corrupt_err_at 25);
  Gr_sim.Engine.run_until kernel.engine (Time_ns.ms 100);
  let vs = Rt.violations (D.engine d) in
  check "a violation was reported" true (vs <> []);
  List.iter
    (fun (v : Rt.violation_record) ->
      check "no violation before the fault landed" true (Time_ns.compare v.at (Time_ns.ms 25) >= 0))
    vs;
  check "the report snapshots the corrupted key" true
    (List.exists
       (fun (v : Rt.violation_record) ->
         v.monitor = "err-bound"
         && v.message = "err out of range"
         && List.assoc_opt "err" v.snapshot = Some 1e14)
       vs)

let test_e2e_replace () =
  let kernel = Kernel.create ~seed:102 in
  let devices =
    Array.init 2 (fun i -> Ssd.create ~rng:kernel.rng ~profile:Ssd.young_profile ~id:i)
  in
  let blk = Blk.create ~engine:kernel.engine ~hooks:kernel.hooks ~devices () in
  (* A learned primary must be live for REPLACE to have something to
     swap out; use_fallback on a bare slot is a no-op. *)
  Slot.install (Blk.slot blk) ~name:"always-trust" (Gr_policy.Inject.stuck_blk Blk.Trust_primary);
  let d = D.create ~kernel () in
  let replaced = ref 0 in
  Kernel.register_policy kernel ~name:"blk_policy"
    ~replace:(fun () ->
      incr replaced;
      Slot.use_fallback (Blk.slot blk))
    ~restore:(fun () -> Slot.restore (Blk.slot blk))
    ();
  ignore
    (D.install_source_exn d
       {|
guardrail err-replace {
  trigger: { TIMER(0, 10ms) },
  rule: { LOAD(err) <= 100 },
  action: {
    REPORT("err out of range", err)
    REPLACE("blk_policy")
  }
}|}
      : Rt.handle list);
  check "slot starts on its primary" false (Slot.on_fallback (Blk.slot blk));
  let inj =
    Injector.create ~kernel ~tracer:(D.tracer d) ~store:(D.store d) ~devices ~blk ~seed:102 ()
  in
  Injector.arm inj (corrupt_err_at 25);
  Gr_sim.Engine.run_until kernel.engine (Time_ns.ms 100);
  check "REPLACE ran the registered callback" true (!replaced >= 1);
  check "the policy slot actually fell back" true (Slot.on_fallback (Blk.slot blk))

let test_e2e_retrain () =
  let kernel = Kernel.create ~seed:103 in
  let d = D.create ~kernel () in
  let retrained = ref 0 in
  Kernel.register_policy kernel ~name:"p"
    ~retrain:(fun () -> incr retrained)
    ~replace:ignore ~restore:ignore ();
  let handles =
    D.install_source_exn d
      {|
guardrail err-retrain {
  trigger: { TIMER(0, 10ms) },
  rule: { LOAD(err) <= 100 },
  action: { RETRAIN("p") }
}|}
  in
  let inj = Injector.create ~kernel ~tracer:(D.tracer d) ~store:(D.store d) ~seed:103 () in
  Injector.arm inj (corrupt_err_at 25);
  (* Past the default 50ms retrain_delay so the async callback runs. *)
  Gr_sim.Engine.run_until kernel.engine (Time_ns.ms 200);
  check "the retrain callback actually ran" true (!retrained >= 1);
  let st = Rt.Stats.get (D.engine d) (List.hd handles) in
  check "the engine accounted the request" true (st.Rt.Stats.retrains_requested >= 1);
  check "callbacks never exceed requests" true (!retrained <= st.Rt.Stats.retrains_requested)

let test_e2e_deprioritize () =
  let kernel = Kernel.create ~seed:104 in
  let sched = Sched.create ~engine:kernel.engine ~hooks:kernel.hooks ~cpus:2 () in
  let d = D.create ~kernel () in
  D.wire_scheduler d sched;
  for _ = 1 to 4 do
    ignore (Sched.spawn sched ~name:"batch-job" ~cls:"batch" ~demand:(Time_ns.ms 300) () : Sched.task)
  done;
  ignore (Sched.spawn sched ~name:"ui" ~cls:"latency" ~demand:(Time_ns.ms 300) () : Sched.task);
  ignore
    (D.install_source_exn d
       {|
guardrail err-deprioritize {
  trigger: { TIMER(0, 10ms) },
  rule: { LOAD(err) <= 100 },
  action: { DEPRIORITIZE("batch", 64) }
}|}
      : Rt.handle list);
  let inj = Injector.create ~kernel ~tracer:(D.tracer d) ~store:(D.store d) ~seed:104 () in
  Injector.arm inj (corrupt_err_at 25);
  Gr_sim.Engine.run_until kernel.engine (Time_ns.ms 60);
  let live cls =
    List.filter
      (fun (t : Sched.task) ->
        t.cls = cls && match t.state with Sched.Runnable | Sched.Running -> true | _ -> false)
      (Sched.tasks sched)
  in
  let batch = live "batch" and latency = live "latency" in
  check "batch tasks are still live" true (batch <> []);
  check "every live batch task was reweighted" true
    (List.for_all (fun (t : Sched.task) -> t.weight = 64) batch);
  check "other classes keep their weight" true
    (List.for_all (fun (t : Sched.task) -> t.weight = 1024) latency)

(* ------------------------------------------------------------------ *)
(* grc exit codes (regression: no backtraces, exit 2 on bad input)    *)
(* ------------------------------------------------------------------ *)

let grc_exe () =
  List.find_opt Sys.file_exists [ "../bin/grc.exe"; "_build/default/bin/grc.exe" ]

let test_grc_exit_codes () =
  match grc_exe () with
  | None -> Alcotest.fail "grc.exe not found next to the test runner"
  | Some grc ->
    let run args = Sys.command (Printf.sprintf "%s %s >/dev/null 2>&1" grc args) in
    check_int "run on a missing file exits 2" 2 (run "run /nonexistent-gr-fault-test.grd");
    let bad = Filename.temp_file "grc-test" ".grd" in
    let oc = open_out bad in
    output_string oc "guardrail broken {";
    close_out oc;
    Fun.protect
      ~finally:(fun () -> Sys.remove bad)
      (fun () -> check_int "run on an unparsable file exits 2" 2 (run ("run " ^ bad)));
    check_int "soak on a missing spec exits 2" 2
      (run "soak --scenario store --seed 1 --duration 0.05 --spec /nonexistent.grd");
    check_int "soak on a bad plan exits 2" 2
      (run "soak --scenario store --seed 1 --duration 0.05 --plan bogus");
    check_int "soak on an unknown scenario exits 2" 2 (run "soak --scenario nope --seed 1");
    check_int "a clean soak run exits 0" 0 (run "soak --scenario store --seed 1 --duration 0.05")

let suite =
  [
    ( "fault",
      [
        Alcotest.test_case "plan: textual round-trip is exact" `Quick test_plan_roundtrip;
        Alcotest.test_case "plan: parse errors are one-line" `Quick test_plan_parse_errors;
        Alcotest.test_case "plan: generation is deterministic" `Quick test_gen_deterministic;
        Alcotest.test_case "injector: inapplicable faults are skipped" `Quick
          test_inapplicable_faults_skipped;
        Alcotest.test_case "soak: same (seed, plan) is bit-deterministic" `Quick
          test_run_bit_deterministic;
        Alcotest.test_case "soak: store scenario passes a small sweep" `Quick test_soak_smoke;
        Alcotest.test_case "soak: shrinker reaches a 1-minimal plan" `Quick test_shrink_minimal;
        Alcotest.test_case "soak: repro command names seed, scenario, plan" `Quick
          test_repro_command_shape;
        Alcotest.test_case "soak: repro pins a fleet failure's --nodes and --engine" `Quick
          test_repro_command_pins_fleet_shape;
        Alcotest.test_case "e2e: REPORT snapshots the corrupted key" `Quick test_e2e_report;
        Alcotest.test_case "e2e: REPLACE flips the policy slot to fallback" `Quick
          test_e2e_replace;
        Alcotest.test_case "e2e: RETRAIN runs the registered callback" `Quick test_e2e_retrain;
        Alcotest.test_case "e2e: DEPRIORITIZE reweights live tasks of the class" `Quick
          test_e2e_deprioritize;
        Alcotest.test_case "grc: bad input exits 2 with no backtrace" `Quick test_grc_exit_codes;
      ] );
  ]
