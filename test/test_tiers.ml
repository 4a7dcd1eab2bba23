(* Tier-selection edge cases for the tiered execution engine:

   - the --engine CLI knob rejects garbage (and the retired [reg]
     tier) with exit 2 and a single diagnostic line (no usage dump, no
     backtrace);
   - Engine.install honors the requested tier, and the JIT runs
     programs whose keys resolve to sharded (fleet-merged) reads;
   - re-installing a monitor under a different tier keeps the store's
     aggregate demands refcounted correctly: shapes shared across
     installs survive a partial uninstall, and a full uninstall
     releases them;
   - a JIT group member reads an input that a member leaving the group
     mid-epoch left unread. *)

module Store = Gr_runtime.Feature_store
module Vm = Gr_runtime.Vm
module Jit = Gr_runtime.Jit
module Ir = Gr_compiler.Ir
module Engine = Gr_runtime.Engine
module D = Guardrails.Deployment
module Fleet = Guardrails.Fleet
module Time_ns = Gr_util.Time_ns

let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* CLI: --engine validation                                           *)
(* ------------------------------------------------------------------ *)

let grc_exe () =
  List.find_opt Sys.file_exists [ "../bin/grc.exe"; "_build/default/bin/grc.exe" ]

let with_spec_file body =
  let path = Filename.temp_file "grc-tiers" ".grd" in
  let oc = open_out path in
  output_string oc
    {|guardrail tiers_cli { trigger: { TIMER(0, 100ms) } rule: { LOAD(x) <= 1 } action: { REPORT("hi") } }|};
  close_out oc;
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> body path)

let test_engine_flag_garbage () =
  match grc_exe () with
  | None -> Alcotest.fail "grc.exe not found next to the test runner"
  | Some grc ->
    with_spec_file (fun spec ->
        let err = Filename.temp_file "grc-tiers" ".err" in
        Fun.protect
          ~finally:(fun () -> Sys.remove err)
          (fun () ->
            List.iter
              (fun tier ->
                let code =
                  Sys.command
                    (Printf.sprintf "%s run %s --engine %s >/dev/null 2>%s" grc spec tier err)
                in
                check_int (Printf.sprintf "--engine %s exits 2" tier) 2 code;
                let ic = open_in err in
                let lines = ref [] in
                (try
                   while true do
                     lines := input_line ic :: !lines
                   done
                 with End_of_file -> ());
                close_in ic;
                check_int
                  (Printf.sprintf "--engine %s diagnostic is a single line" tier)
                  1 (List.length !lines))
              [ "turbo"; "reg" ];
            check_int "soak rejects garbage --engine too" 2
              (Sys.command
                 (Printf.sprintf
                    "%s soak --scenario store --seed 1 --duration 0.05 --engine warp \
                     >/dev/null 2>&1"
                    grc))))

let test_engine_flag_accepted () =
  match grc_exe () with
  | None -> Alcotest.fail "grc.exe not found next to the test runner"
  | Some grc ->
    with_spec_file (fun spec ->
        List.iter
          (fun tier ->
            check_int
              (Printf.sprintf "run --engine %s exits 0" tier)
              0
              (Sys.command
                 (Printf.sprintf "%s run %s --until 0.2 --engine %s >/dev/null 2>&1" grc spec
                    tier)))
          [ "tree"; "jit" ])

(* ------------------------------------------------------------------ *)
(* Engine.install: tier selection, sharded stores included           *)
(* ------------------------------------------------------------------ *)

let avg_source =
  {|guardrail tiers_avg { trigger: { TIMER(0, 100ms) } rule: { AVG(lat, 1s) <= 100 } action: { REPORT("slow") } }|}

let compile_one src =
  match Guardrails.Compile.source src with
  | Ok [ m ] -> m
  | Ok _ -> Alcotest.fail "expected one monitor"
  | Error e -> Alcotest.failf "compile: %a" Guardrails.Compile.pp_error e

let test_requested_tier_honored () =
  let kernel = Gr_kernel.Kernel.create ~seed:11 in
  let d = D.create ~kernel () in
  let engine = D.engine d in
  Alcotest.check
    (Alcotest.testable (fun ppf t -> Format.pp_print_string ppf (Vm.tier_to_string t)) ( = ))
    "deployment default is the JIT" Vm.Jit (Engine.default_tier engine);
  List.iter
    (fun tier ->
      match Engine.install ~engine:tier engine (compile_one avg_source) with
      | Error msgs -> Alcotest.failf "install failed: %s" (String.concat "; " msgs)
      | Ok h ->
        if Engine.tier h <> tier then
          Alcotest.failf "requested %s, got %s" (Vm.tier_to_string tier)
            (Vm.tier_to_string (Engine.tier h));
        ignore (Engine.check_now engine h : bool);
        Engine.uninstall engine h)
    Vm.all_tiers

let test_fleet_monitors_run_on_jit () =
  (* A fleet's control store reads plain keys as the cross-shard
     merged view. Its store handles pin every member's entry and fold
     them on each read, so fleet control monitors run on the JIT like
     node monitors do. *)
  let fleet = Fleet.create ~nodes:2 ~seed:3 () in
  (match Fleet.install_source fleet avg_source with
  | Error e -> Alcotest.failf "fleet install: %a" D.pp_error e
  | Ok [ h ] ->
    if Engine.tier h <> Vm.Jit then
      Alcotest.failf "fleet control monitor should run on the JIT, got %s"
        (Vm.tier_to_string (Engine.tier h));
    ignore (Engine.check_now (Fleet.engine fleet) h : bool)
  | Ok _ -> Alcotest.fail "expected one handle");
  match D.install_source (Fleet.node fleet 0) avg_source with
  | Error e -> Alcotest.failf "node install: %a" D.pp_error e
  | Ok [ h ] ->
    if Engine.tier h <> Vm.Jit then
      Alcotest.failf "node monitor should keep the JIT, got %s"
        (Vm.tier_to_string (Engine.tier h))
  | Ok _ -> Alcotest.fail "expected one handle"

(* ------------------------------------------------------------------ *)
(* Re-install across tiers: demand refcounts                          *)
(* ------------------------------------------------------------------ *)

let test_reinstall_preserves_demands () =
  let kernel = Gr_kernel.Kernel.create ~seed:5 in
  let d = D.create ~kernel () in
  let engine = D.engine d and store = D.store d in
  D.save d "lat" 42.;
  check_int "no demands before install" 0 (Store.demand_count store);
  let install tier =
    match Engine.install ~engine:tier engine (compile_one avg_source) with
    | Ok h -> h
    | Error msgs -> Alcotest.failf "install: %s" (String.concat "; " msgs)
  in
  let h_jit = install Vm.Jit in
  check_int "one demand after first install" 1 (Store.demand_count store);
  (* same aggregate shape from a second monitor on another tier:
     refcounted, not duplicated *)
  let h_tree = install Vm.Tree in
  check_int "shared shape still one demand" 1 (Store.demand_count store);
  Engine.uninstall engine h_jit;
  check_int "demand survives partial uninstall" 1 (Store.demand_count store);
  (* the surviving monitor still takes the streaming path *)
  let hits_before = Store.agg_hit_count store in
  ignore (Engine.check_now engine h_tree : bool);
  if Store.agg_hit_count store <= hits_before then
    Alcotest.fail "surviving monitor no longer streams its aggregate";
  Engine.uninstall engine h_tree;
  check_int "full uninstall releases the demand" 0 (Store.demand_count store);
  (* tier switching round-trip: reinstall under each tier in turn;
     the demand comes back and the verdict is tier-invariant *)
  let verdicts =
    List.map
      (fun tier ->
        let h = install tier in
        check_int "reinstall re-registers the demand" 1 (Store.demand_count store);
        let v = Engine.check_now engine h in
        Engine.uninstall engine h;
        check_int "uninstall releases again" 0 (Store.demand_count store);
        v)
      Vm.all_tiers
  in
  match verdicts with
  | [ a; b ] -> if a <> b then Alcotest.failf "verdicts differ across tiers: %b %b" a b
  | _ -> assert false

(* A group skips its members' stamp checks once every input is read in
   the epoch. A member that leaves takes its fresh inputs out of that
   count, so the next member still reads its own. *)
let test_group_leave_mid_epoch () =
  let store = Store.create ~clock:(fun () -> Time_ns.zero) () in
  let load = { Ir.insts = [| Ir.Load { dst = 0; slot = 0 } |]; result = 0; n_regs = 1; srcmap = [||] } in
  let g = Jit.group store in
  let a = Jit.member g ~slots:[| "a" |] load in
  let b = Jit.member g ~slots:[| "b" |] load in
  Store.save store "b" 7.;
  Jit.invalidate g;
  Jit.exec a;
  Jit.leave a;
  Jit.exec b;
  Alcotest.(check (float 0.)) "b reads its key" 7. (Jit.out b).Vm.value

let suite =
  [
    ( "tiers",
      [
        Alcotest.test_case "grc --engine rejects garbage with exit 2, one line" `Quick
          test_engine_flag_garbage;
        Alcotest.test_case "grc --engine accepts tree/jit" `Quick test_engine_flag_accepted;
        Alcotest.test_case "install honors the requested tier" `Quick test_requested_tier_honored;
        Alcotest.test_case "fleet control monitors run on the JIT" `Quick
          test_fleet_monitors_run_on_jit;
        Alcotest.test_case "re-install across tiers preserves demand refcounts" `Quick
          test_reinstall_preserves_demands;
        Alcotest.test_case "JIT group member reads after a leave mid-epoch" `Quick
          test_group_leave_mid_epoch;
      ] );
  ]
