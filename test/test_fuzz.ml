(* Fuzz-style tests, in two tiers.

   Robustness: the compiler front end must never raise anything
   except its declared error type, no matter the input.

   Differential: random well-typed specs are compiled twice — the
   real pipeline (optimised, streaming aggregates) and a reference
   configuration (unoptimised, naive full-scan aggregates) — and the
   result is compared three ways: the tree-walking VM, the closure
   template JIT (Jit.compile), and an independent IR reference
   interpreter written directly from the semantics in vm.mli. The two
   engine tiers must agree BIT-exactly — value, instruction count,
   scanned samples, estimated cost, and store counter effects — on a
   single store and again on a fleet-tier store whose plain keys read
   as the merge of two shards; the reference comparison allows a
   rounding tolerance. A divergence means a bug in the optimiser, a
   VM tier, or the incremental store, and the failure message carries
   a `grc run --engine` repro line.

   Every case derives from a pinned seed ([0x5EED + i]), so CI runs
   the exact same 500 programs every time and a failure message
   identifies the case by index alone. *)

module Store = Gr_runtime.Feature_store
module Vm = Gr_runtime.Vm
module Jit = Gr_runtime.Jit
module Ir = Gr_compiler.Ir
module Monitor = Gr_compiler.Monitor
module Compile = Gr_compiler.Compile
module Rng = Gr_util.Rng
module Time_ns = Gr_util.Time_ns

let parser_total_on_garbage =
  QCheck2.Test.make ~name:"parser returns Ok/Error on arbitrary bytes, never raises" ~count:1000
    QCheck2.Gen.(string_size ~gen:(char_range '\000' '\255') (int_range 0 200))
    (fun s ->
      match Gr_dsl.Parser.parse s with Ok _ | Error _ -> true)

let printable_gen =
  (* Biased toward token-shaped fragments so the parser gets past the
     lexer often enough to exercise deeper paths. *)
  QCheck2.Gen.(
    map (String.concat " ")
      (list_size (int_range 0 40)
         (oneofl
            [
              "guardrail"; "trigger"; "rule"; "action"; "{"; "}"; "("; ")"; ","; ";"; ":";
              "TIMER"; "FUNCTION"; "ON_CHANGE"; "LOAD"; "SAVE"; "REPORT"; "REPLACE"; "RETRAIN";
              "AVG"; "QUANTILE"; "&&"; "||"; "!"; "<="; "=="; "+"; "-"; "*"; "/"; "0"; "1e9";
              "50ms"; "true"; "false"; "x"; "y"; "\"s\""; "low-false-submit";
            ])))

let parser_total_on_token_soup =
  QCheck2.Test.make ~name:"parser total on token soup" ~count:1000 printable_gen (fun s ->
      match Gr_dsl.Parser.parse s with Ok _ | Error _ -> true)

let compile_total_on_token_soup =
  QCheck2.Test.make ~name:"full compile pipeline total on token soup" ~count:500 printable_gen
    (fun s ->
      match Gr_compiler.Compile.source s with Ok _ | Error _ -> true)

let compiled_monitors_always_verify =
  (* Everything the pipeline accepts must satisfy the verifier — the
     compiler cannot emit monitors the loader would reject. *)
  QCheck2.Test.make ~name:"pipeline output always passes the verifier" ~count:300
    Gen.guardrail_gen
    (fun g ->
      let src = Gr_dsl.Pretty.spec_to_string [ g ] in
      match Gr_compiler.Compile.source src with
      | Error _ -> true (* rejected inputs are fine *)
      | Ok monitors ->
        List.for_all
          (fun m -> Result.is_ok (Gr_compiler.Verify.verify m))
          monitors)

(* ------------------------------------------------------------------ *)
(* Differential fuzzer: VM vs. a direct IR reference interpreter.     *)
(* ------------------------------------------------------------------ *)

let fuzz_cases = 500

(* Reference interpreter, written against the documented semantics
   (vm.mli): booleans are 0/1, any non-zero value is truthy, division
   by zero yields 0. Deliberately shares no code with Vm.run. *)
let eval_ref ~store ~slots (p : Ir.program) =
  let regs = Array.make (max 1 p.Ir.n_regs) 0. in
  let truthy v = v <> 0. in
  let of_bool b = if b then 1. else 0. in
  Array.iter
    (fun (inst : Ir.inst) ->
      match inst with
      | Ir.Const { dst; value } -> regs.(dst) <- value
      | Ir.Load { dst; slot } -> regs.(dst) <- Store.load store slots.(slot)
      | Ir.Agg { dst; fn; slot; window_ns; param } ->
        regs.(dst) <- Store.aggregate store ~key:slots.(slot) ~fn ~window_ns ~param
      | Ir.Unop { dst; op; src } ->
        let v = regs.(src) in
        regs.(dst) <-
          (match op with
          | Gr_dsl.Ast.Neg -> -.v
          | Gr_dsl.Ast.Abs -> Float.abs v
          | Gr_dsl.Ast.Not -> of_bool (not (truthy v)))
      | Ir.Binop { dst; op; lhs; rhs } ->
        let a = regs.(lhs) and b = regs.(rhs) in
        regs.(dst) <-
          (match op with
          | Gr_dsl.Ast.Add -> a +. b
          | Gr_dsl.Ast.Sub -> a -. b
          | Gr_dsl.Ast.Mul -> a *. b
          | Gr_dsl.Ast.Div -> if b = 0. then 0. else a /. b
          | Gr_dsl.Ast.Lt -> of_bool (a < b)
          | Gr_dsl.Ast.Le -> of_bool (a <= b)
          | Gr_dsl.Ast.Gt -> of_bool (a > b)
          | Gr_dsl.Ast.Ge -> of_bool (a >= b)
          | Gr_dsl.Ast.Eq -> of_bool (a = b)
          | Gr_dsl.Ast.Ne -> of_bool (a <> b)
          | Gr_dsl.Ast.And -> of_bool (truthy a && truthy b)
          | Gr_dsl.Ast.Or -> of_bool (truthy a || truthy b)))
    p.Ir.insts;
  regs.(p.Ir.result)

(* The rule program plus every SAVE value program, labelled. Both
   compiles see the same source, so the lists zip positionally. *)
let labeled_programs (m : Monitor.t) =
  ("rule", m.Monitor.rule)
  :: List.concat_map
       (function
         | Monitor.Save { key; value } -> [ ("save:" ^ key, value) ]
         | _ -> [])
       m.Monitor.actions

(* Register every aggregate shape the monitor will ask for, exactly
   as the runtime does at install time, so the VM side exercises the
   streaming path while the reference side scans naively. *)
let register_demands store (m : Monitor.t) =
  List.iter
    (fun (_, (p : Ir.program)) ->
      Array.iter
        (function
          | Ir.Agg { fn; slot; window_ns; param; _ } ->
            Store.register_demand store ~key:m.Monitor.slots.(slot) ~fn ~window_ns ~param
          | _ -> ())
        p.Ir.insts)
    (labeled_programs m)

(* Samples are small integers, so streaming and naive sums are exact
   and boolean results cannot flip on a rounding knife-edge; the
   tolerance only absorbs the two stddev formulations (running
   sum-of-squares vs. two-pass). Occasional NaNs check that both
   interpreters propagate them identically. *)
let close a b =
  (Float.is_nan a && Float.is_nan b)
  || a = b
  || Float.abs (a -. b) <= 1e-9 +. (1e-6 *. (Float.abs a +. Float.abs b))

let fuzz_keys = [| "lat"; "rate"; "depth"; "err"; "load_avg" |]

(* The case's 400 pseudo-random saves, advancing [clock]; [store_for n]
   picks the store save number [n] lands in. *)
let populate i clock store_for =
  let rng = Rng.create (0xD1FF + i) in
  for n = 1 to 400 do
    clock := Time_ns.add !clock (Time_ns.us (1 + Rng.int rng 4999));
    let v = if Rng.int rng 50 = 0 then Float.nan else float_of_int (Rng.int rng 17) in
    Store.save (store_for n) fuzz_keys.(Rng.int rng (Array.length fuzz_keys)) v
  done

(* A fleet-tier store over two shards, the saves alternating between
   them: every plain key reads as a cross-shard merge. Demands are
   registered after the stores are linked, so they fan out. *)
let sharded_store i monitors =
  let clock = ref Time_ns.zero in
  let create () = Store.create ~clock:(fun () -> !clock) ~capacity_per_key:1024 () in
  let fleet = create () and shards = [| create (); create () |] in
  Store.link fleet shards;
  List.iter (register_demands fleet) monitors;
  populate i clock (fun n -> shards.(n mod 2));
  fleet

let run_case i failures =
  let fail fmt =
    Printf.ksprintf (fun msg -> failures := Printf.sprintf "case %d: %s" i msg :: !failures) fmt
  in
  let rand = Random.State.make [| 0x5EED + i |] in
  let g = QCheck2.Gen.generate1 ~rand Gen.guardrail_gen in
  (* The verifier rejects duplicate SAVE keys; keep the first write
     per key so every generated case compiles and gets compared. *)
  let g =
    let seen = Hashtbl.create 4 in
    {
      g with
      Gr_dsl.Ast.actions =
        List.filter
          (fun (a : Gr_dsl.Ast.action Gr_dsl.Ast.located) ->
            match a.Gr_dsl.Ast.node with
            | Gr_dsl.Ast.Save { key; _ } ->
              if Hashtbl.mem seen key then false
              else (
                Hashtbl.add seen key ();
                true)
            | _ -> true)
          g.Gr_dsl.Ast.actions;
    }
  in
  let src = Gr_dsl.Pretty.spec_to_string [ g ] in
  match (Compile.source ~optimize:true src, Compile.source ~optimize:false src) with
  | Error e, _ | _, Error e ->
    fail "generated spec failed to compile: %a@\n%s" (fun () -> Format.asprintf "%a" Compile.pp_error) e src
  | Ok opts, Ok refs when List.length opts <> List.length refs ->
    fail "optimised/unoptimised monitor counts differ (%d vs %d)" (List.length opts)
      (List.length refs)
  | Ok opts, Ok refs ->
    let clock = ref Time_ns.zero in
    let store = Store.create ~clock:(fun () -> !clock) ~capacity_per_key:1024 () in
    List.iter (register_demands store) opts;
    populate i clock (fun _ -> store);
    let fleet = sharded_store i opts in
    List.iter2
      (fun (om : Monitor.t) (rm : Monitor.t) ->
        List.iter2
          (fun (label, p_opt) (_, p_ref) ->
            (* The optimiser (CSE + DCE) only removes instructions. *)
            if Array.length p_opt.Ir.insts > Array.length p_ref.Ir.insts then
              fail "%s: optimised program longer than unoptimised (%d > %d)" label
                (Array.length p_opt.Ir.insts)
                (Array.length p_ref.Ir.insts);
            let vm = Vm.run ~store ~slots:om.Monitor.slots p_opt in
            let again = Vm.run ~store ~slots:om.Monitor.slots p_opt in
            if not (close vm.Vm.value again.Vm.value) then
              fail "%s: VM not idempotent at fixed clock (%h vs %h)" label vm.Vm.value
                again.Vm.value;
            (* Cross-tier: the first run above paid any lazy window
               expiry, so from here the store is at a steady state and
               every execution tier must agree bit-for-bit — value,
               accounting AND store counter effects. The sharded arm
               settles its store the same way first. *)
            let slots = om.Monitor.slots in
            let compare_tiers ~arm store =
              let counters () =
                (Store.load_count store, Store.agg_hit_count store, Store.agg_miss_count store)
              in
              let run_tier tier : Vm.result * (int * int * int) =
                let (l0, h0, m0) = counters () in
                let r =
                  match (tier : Vm.tier) with
                  | Vm.Tree -> Vm.run ~store ~slots p_opt
                  | Vm.Jit -> Jit.run (Jit.compile ~store ~slots p_opt)
                in
                let (l1, h1, m1) = counters () in
                (r, (l1 - l0, h1 - h0, m1 - m0))
              in
              let (tree, d_tree) = run_tier Vm.Tree in
              let (r, d) = run_tier Vm.Jit in
              let bits = Int64.bits_of_float in
              if
                bits r.Vm.value <> bits tree.Vm.value
                || r.Vm.insts_executed <> tree.Vm.insts_executed
                || r.Vm.samples_scanned <> tree.Vm.samples_scanned
                || bits r.Vm.est_cost_ns <> bits tree.Vm.est_cost_ns
                || d <> d_tree
              then (
                let (dl, dh, dm) = d and (tl, th, tm) = d_tree in
                fail
                  "%s (%s store): tier jit diverged from tree (value %h/%h insts %d/%d scanned \
                   %d/%d cost %h/%h counters %d,%d,%d/%d,%d,%d)\n\
                   repro: save the spec below as f.grd, then `grc run f.grd --engine jit` \
                   (generator seed 0x%X)\n\
                   %s"
                  label arm r.Vm.value tree.Vm.value r.Vm.insts_executed tree.Vm.insts_executed
                  r.Vm.samples_scanned tree.Vm.samples_scanned r.Vm.est_cost_ns
                  tree.Vm.est_cost_ns dl dh dm tl th tm (0x5EED + i) src)
            in
            compare_tiers ~arm:"single" store;
            ignore (Vm.run ~store:fleet ~slots p_opt : Vm.result);
            compare_tiers ~arm:"sharded" fleet;
            Store.set_force_naive store true;
            let reference = eval_ref ~store ~slots:rm.Monitor.slots p_ref in
            Store.set_force_naive store false;
            if not (close vm.Vm.value reference) then
              fail "%s: VM=%h reference=%h@\n%s" label vm.Vm.value reference src)
          (labeled_programs om) (labeled_programs rm))
      opts refs

(* Property: cost accounting is tier-invariant. GRL105's budget
   enforcement reads est_cost_ns / samples_scanned; if a faster tier
   reported cheaper checks, budget verdicts would change with the
   --engine flag. *)
let accounting_tier_invariant =
  QCheck2.Test.make ~name:"cost accounting identical across tree/jit" ~count:200
    Gen.guardrail_gen (fun g ->
      let src = Gr_dsl.Pretty.spec_to_string [ g ] in
      match Compile.source src with
      | Error _ -> true
      | Ok monitors ->
        let clock = ref Time_ns.zero in
        let store = Store.create ~clock:(fun () -> !clock) ~capacity_per_key:512 () in
        List.iter (register_demands store) monitors;
        let rng = Rng.create 0xACC7 in
        for _ = 1 to 200 do
          clock := Time_ns.add !clock (Time_ns.us (1 + Rng.int rng 999));
          Store.save store
            fuzz_keys.(Rng.int rng (Array.length fuzz_keys))
            (float_of_int (Rng.int rng 13))
        done;
        List.for_all
          (fun (m : Monitor.t) ->
            List.for_all
              (fun (_, (p : Ir.program)) ->
                let slots = m.Monitor.slots in
                (* the first run settles lazy window expiry *)
                ignore (Vm.run ~store ~slots p : Vm.result);
                let tree = Vm.run ~static_cost_ns:(Vm.static_cost_ns p) ~store ~slots p in
                let jit = Jit.run (Jit.compile ~store ~slots p) in
                let same (a : Vm.result) (b : Vm.result) =
                  a.Vm.insts_executed = b.Vm.insts_executed
                  && a.Vm.samples_scanned = b.Vm.samples_scanned
                  && Int64.bits_of_float a.Vm.est_cost_ns = Int64.bits_of_float b.Vm.est_cost_ns
                in
                same tree jit)
              (labeled_programs m))
          monitors)

let test_differential () =
  let failures = ref [] in
  for i = 0 to fuzz_cases - 1 do
    run_case i failures
  done;
  match List.rev !failures with
  | [] -> ()
  | fs ->
    let shown = List.filteri (fun i _ -> i < 10) fs in
    Alcotest.failf "%d/%d differential cases diverged (first %d shown):\n%s" (List.length fs)
      fuzz_cases (List.length shown) (String.concat "\n" shown)

(* ------------------------------------------------------------------ *)
(* Fleet differential: one domain vs. four, byte for byte.            *)
(* ------------------------------------------------------------------ *)

module Fleet = Guardrails.Fleet
module D = Guardrails.Deployment

let fleet_fuzz_cases = 30

(* Feeder cadence (µs): half land on whole milliseconds, so node events
   tie with epoch boundaries and control TIMER ticks; the other half
   fall anywhere. Determinism across domain counts must not depend on
   which. *)
let random_cadence rng =
  (1000 * (3 + Rng.int rng 28)) + if Rng.bool rng then 0 else Rng.int rng 1000

let run_fleet_case i failures violations_seen =
  let fail fmt =
    Printf.ksprintf
      (fun msg -> failures := Printf.sprintf "fleet case %d: %s" i msg :: !failures)
      fmt
  in
  let rng = Rng.create (0xF1EE7 + i) in
  let nodes = 2 + Rng.int rng 5 in
  let seed = 101 + Rng.int rng 10_000 in
  let epoch = Time_ns.ms (10 * (2 + Rng.int rng 9)) in
  let limit = Time_ns.ms (100 * (8 + Rng.int rng 8)) in
  let beacon_stride = 1 + Rng.int rng 3 in
  let lat_every = Array.init nodes (fun _ -> random_cadence rng) in
  let beacon_every = Array.init nodes (fun _ -> 10 * random_cadence rng) in
  let source =
    Printf.sprintf
      {|guardrail fz_lat { trigger: { TIMER(0, %dms) } rule: { AVG(lat, 1s) <= %d } action: { REPORT("lat high", lat) } }
        guardrail fz_beacon { trigger: { ON_CHANGE(GLOBAL(beacon)) } rule: { COUNT(GLOBAL(beacon), 1s) <= %d } action: { REPORT("beacon burst", GLOBAL(beacon)) } }
        guardrail fz_act { trigger: { TIMER(0, %dms) } rule: { QUANTILE(lat, 0.9, 1s) <= %d } action: { REPORT("tail", lat) REPLACE("dummy_policy") } }|}
      (10 * (2 + Rng.int rng 20))
      (30 + (10 * Rng.int rng 7))
      (Rng.int rng 6)
      (10 * (2 + Rng.int rng 40))
      (40 + (10 * Rng.int rng 8))
  in
  let build domains =
    let fleet = Fleet.create ~nodes ~seed ~tracing:true ~domains ~epoch () in
    Array.iteri
      (fun n node ->
        let krng = (D.kernel node).Gr_kernel.Kernel.rng in
        D.derive_periodic node ~key:"lat"
          ~every:(Time_ns.us lat_every.(n))
          (fun () -> Rng.float krng 100.);
        if n mod beacon_stride = 0 then
          D.derive_periodic node
            ~key:(Gr_dsl.Ast.global_key "beacon")
            ~every:(Time_ns.us beacon_every.(n))
            (fun () -> Rng.float krng 10.);
        Gr_kernel.Policy_slot.Registry.register
          (D.kernel node).Gr_kernel.Kernel.registry "dummy_policy"
          { replace = (fun () -> ()); restore = (fun () -> ()); retrain = (fun () -> ()) })
      (Fleet.nodes fleet);
    ignore (Fleet.install_source_exn fleet source : Gr_runtime.Engine.handle list);
    Fleet.run_until fleet limit;
    fleet
  in
  let one = build 1 and four = build 4 in
  if Fleet.domains four < 2 then fail "K=4 side did not engage domains";
  let v1, acts_1, aggs_1, g1 = Test_par.observables one in
  let v4, acts_4, aggs_4, g4 = Test_par.observables four in
  violations_seen := !violations_seen + List.length v1;
  if List.length v1 <> List.length v4 then
    fail "violation counts diverged (K=1 %d vs K=4 %d)" (List.length v1) (List.length v4)
  else
    List.iter2 (fun a b -> if a <> b then fail "violation record diverged: %s vs %s" a b) v1 v4;
  if acts_1 <> acts_4 then fail "fleet action counters diverged";
  if aggs_1 <> aggs_4 then fail "merged aggregates diverged";
  if not (g1 = g4 || (Float.is_nan g1 && Float.is_nan g4)) then
    fail "global-tier beacon value diverged (%h vs %h)" g1 g4;
  List.iteri
    (fun channel (t1, t4) ->
      if Gr_trace.Export.chrome_string t1 <> Gr_trace.Export.chrome_string t4 then
        fail "trace channel %d not byte-identical" channel)
    (List.combine (Fleet.tracers one) (Fleet.tracers four))

let test_fleet_differential () =
  let failures = ref [] in
  let violations_seen = ref 0 in
  for i = 0 to fleet_fuzz_cases - 1 do
    run_fleet_case i failures violations_seen
  done;
  if !violations_seen = 0 then
    Alcotest.fail "fleet differential never produced a violation — thresholds too lax to test anything";
  match List.rev !failures with
  | [] -> ()
  | fs ->
    let shown = List.filteri (fun i _ -> i < 10) fs in
    Alcotest.failf "%d/%d fleet differential cases diverged (first %d shown):\n%s"
      (List.length fs) fleet_fuzz_cases (List.length shown) (String.concat "\n" shown)

(* ------------------------------------------------------------------ *)
(* Trigger groups: grouped JIT vs. per-monitor tree interpretation.    *)
(* ------------------------------------------------------------------ *)

(* Random monitor sets that share a FUNCTION hook, an ON_CHANGE key or
   both run one script twice. The grouped side is the JIT engine as
   shipped: the set becomes one trigger group per hook or key, each
   input read once per frame epoch. The reference side interprets every
   rule on the tree tier and installs a no-op hook listener and key
   watch before each monitor, which closes every group: each monitor
   then has its own subscription and watch. Each
   monitor SAVEs a key the next one reads, so actions inside a group
   must refresh the frame; the script saves, fires, advances the clock
   and installs and uninstalls monitors between fires. Every set also
   holds a family of 1 to 9 linear monitors over one shared input list
   (Gen.linear_family_gen), installed one after another so the JIT
   banks their linear forms: their SAVEs write shared inputs between
   members, the saves include NaN, infinities and 1e300, and the
   middle member is uninstalled after a few fires. Verdicts, accounts,
   store counters and trace bytes must be identical. *)

module Engine = Gr_runtime.Engine

let group_fuzz_cases = 100
let group_hook = "fz:hook"
let group_key = "depth"

let rec expr_keys (e : Gr_dsl.Ast.expr Gr_dsl.Ast.located) =
  match e.node with
  | Gr_dsl.Ast.Number _ | Bool _ -> []
  | Load k -> [ k ]
  | Agg { key; _ } -> [ key ]
  | Unop (_, e) -> expr_keys e
  | Binop (_, l, r) -> expr_keys l @ expr_keys r

type group_op = Fire | Put of string * float | Advance of int | Install of int | Uninstall of int

(* The family's inputs: the group key's SAVEs would wake the ON_CHANGE
   group again from inside its own dispatch, nine members deep per
   level, which the random rules already cover at a fraction of the
   cost. *)
let family_keys = List.filter (fun k -> k <> group_key) (Array.to_list fuzz_keys)

(* Monitor [j]'s spec: a rule, a REPORT, and a SAVE whose key the rule
   of monitor [j + 1] reads, when it reads one. The first [count]
   rules are random, the [family] after them linear over one input
   list. *)
let group_specs rand ~triggers ~count ~family =
  let gen g = QCheck2.Gen.generate1 ~rand g in
  let rules =
    Array.append
      (Array.init count (fun _ -> gen (Gen.bool_gen 2)))
      (Array.of_list (gen (Gen.linear_family_gen ~keys:family_keys ~size:family)))
  in
  let count = count + family in
  Array.mapi
    (fun j rule ->
      let target =
        match expr_keys rules.((j + 1) mod count) with
        | [] -> gen Gen.key_gen
        | ks -> List.nth ks (Random.State.int rand (List.length ks))
      in
      let pos = Gen.pos and at = Gr_dsl.Ast.at in
      let g =
        {
          Gr_dsl.Ast.name = Printf.sprintf "grp_%d" j;
          pos;
          triggers = List.map (at pos) triggers;
          rules = [ rule ];
          actions =
            [
              at pos (Gr_dsl.Ast.Report { message = "violated"; keys = [ target ] });
              at pos (Gr_dsl.Ast.Save { key = target; value = gen (Gen.num_gen 1) });
            ];
        }
      in
      Gr_dsl.Pretty.spec_to_string [ g ])
    rules

(* Saved feature values: small integers, now and then a NaN, an
   infinity or 1e300. *)
let group_value rand =
  match Random.State.int rand 40 with
  | 0 -> Float.nan
  | 1 -> Float.infinity
  | 2 -> Float.neg_infinity
  | 3 -> 1e300
  | _ -> float_of_int (Random.State.int rand 17)

(* Installs the [initial] random monitors, then the family's
   ([count] on), fires, uninstalls the family's middle member and
   fires again, then runs 50 random steps. *)
let group_script rand ~initial ~count ~family =
  let pick a = a.(Random.State.int rand (Array.length a)) in
  List.init initial (fun j -> Install j)
  @ List.init family (fun j -> Install (count + j))
  @ [ Fire; Put (pick fuzz_keys, group_value rand); Fire; Uninstall (initial + (family / 2)); Fire ]
  @ List.init 50 (fun _ ->
        match Random.State.int rand 20 with
        | 0 -> Install (initial + Random.State.int rand (count - initial))
        | 1 -> Uninstall (Random.State.int rand 8)
        | 2 | 3 | 4 -> Advance (1 + Random.State.int rand 400_000)
        | 5 | 6 | 7 | 8 -> Put (pick fuzz_keys, group_value rand)
        | _ -> Fire)

(* Runs the script on a fresh traced deployment; answers its
   observables. *)
let group_world ~grouped ~on_hook specs script =
  let kernel = Gr_kernel.Kernel.create ~seed:7 in
  let config = { Engine.default_config with max_cascade_depth = 3 } in
  let d =
    D.create ~kernel ~config ~tracing:true
      ~engine:(if grouped then Vm.Jit else Vm.Tree)
      ()
  in
  (* A listener from elsewhere on both sides, so the separators never
     decide whether a firing has listeners (and a traced hook span). *)
  ignore (Gr_kernel.Hooks.subscribe kernel.hooks group_hook ignore : Gr_kernel.Hooks.subscription);
  let installed = ref [] and ever = ref [] in
  let apply = function
    | Install s -> (
      if not grouped then begin
        ignore
          (Gr_kernel.Hooks.subscribe kernel.hooks group_hook ignore : Gr_kernel.Hooks.subscription);
        ignore (Store.watch (D.store d) group_key ignore : Store.watch)
      end;
      match D.install_source d specs.(s) with
      | Ok hs ->
        installed := !installed @ hs;
        ever := !ever @ hs
      | Error _ -> ())
    | Uninstall n -> (
      match !installed with
      | [] -> ()
      | hs ->
        let h = List.nth hs (n mod List.length hs) in
        D.uninstall d h;
        installed := List.filter (fun h' -> h' != h) hs)
    | Advance us ->
      Gr_kernel.Kernel.run_until kernel (Time_ns.add (Gr_kernel.Kernel.now kernel) (Time_ns.us us))
    | Put (k, v) -> D.save d k v
    | Fire ->
      if on_hook then Gr_kernel.Hooks.fire kernel.hooks group_hook [ ("x", 1.) ]
      else D.save d group_key 1.
  in
  List.iter apply script;
  let engine = D.engine d and store = D.store d in
  let stats =
    List.map
      (fun h ->
        let s = Engine.Stats.get engine h in
        ( Engine.monitor_name h,
          (s.checks, s.violations, s.action_firings, s.cascade_drops, s.oscillation_alerts),
          Int64.bits_of_float s.overhead_ns ))
      !ever
  in
  let counters =
    ( Store.load_count store,
      Store.agg_hit_count store,
      Store.agg_miss_count store,
      Store.save_count store,
      Store.expired_count store )
  in
  let reports =
    List.map
      (fun (v : Engine.violation_record) ->
        let bits = List.map (fun (k, x) -> (k, Int64.bits_of_float x)) v.snapshot in
        (v.monitor, v.at, v.message, bits))
      (Engine.violations engine)
  in
  (stats, counters, reports, Gr_trace.Export.chrome_string (D.tracer d))

(* Adds one line to [failures] when the case diverges, naming every
   observable that did. *)
let run_group_case i failures firings =
  let diverged = ref [] in
  let fail fmt = Printf.ksprintf (fun msg -> diverged := msg :: !diverged) fmt in
  let rand = Random.State.make [| 0x6A0F + i |] in
  let on_hook = i mod 3 <> 1 in
  let triggers =
    match i mod 3 with
    | 0 -> [ Gr_dsl.Ast.Function group_hook ]
    | 1 -> [ Gr_dsl.Ast.On_change group_key ]
    | _ -> [ Gr_dsl.Ast.Function group_hook; Gr_dsl.Ast.On_change group_key ]
  in
  let initial = 3 + Random.State.int rand 4 in
  let count = initial + 3 and family = 1 + (i mod 9) in
  let specs = group_specs rand ~triggers ~count ~family in
  let script = group_script rand ~initial ~count ~family in
  let stats, counters, reports, trace = group_world ~grouped:true ~on_hook specs script in
  let stats', counters', reports', trace' = group_world ~grouped:false ~on_hook specs script in
  List.iter (fun (_, (_, _, f, _, _), _) -> firings := !firings + f) stats;
  if stats <> stats' then fail "per-monitor stats or accounts diverged";
  if counters <> counters' then begin
    let l, h, m, _, _ = counters and l', h', m', _, _ = counters' in
    fail "store counters diverged (loads %d/%d hits %d/%d misses %d/%d)" l l' h h' m m'
  end;
  if reports <> reports' then fail "reports diverged";
  if trace <> trace' then fail "trace bytes diverged";
  if !diverged <> [] then
    failures :=
      Printf.sprintf "group case %d: %s" i (String.concat "; " (List.rev !diverged)) :: !failures

let test_group_differential () =
  let failures = ref [] and firings = ref 0 in
  for i = 0 to group_fuzz_cases - 1 do
    run_group_case i failures firings
  done;
  if !firings = 0 then Alcotest.fail "no action ever fired: the group cases test no refresh";
  match List.rev !failures with
  | [] -> ()
  | fs ->
    let shown = List.filteri (fun i _ -> i < 10) fs in
    Alcotest.failf "%d/%d trigger-group cases diverged (first %d shown):\n%s" (List.length fs)
      group_fuzz_cases (List.length shown) (String.concat "\n" shown)

(* Pin the property tests' seed too: CI replays the same inputs. *)
let pinned t = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5EED |]) t

let suite =
  [
    ( "fuzz",
      [
        pinned parser_total_on_garbage;
        pinned parser_total_on_token_soup;
        pinned compile_total_on_token_soup;
        pinned compiled_monitors_always_verify;
        pinned accounting_tier_invariant;
        Alcotest.test_case
          "differential: tree/jit/reference on single and sharded stores, 500 pinned seeds" `Quick
          test_differential;
        Alcotest.test_case
          "differential: fleet K=1 vs K=4 byte-identical traces, 30 pinned seeds" `Quick
          test_fleet_differential;
        Alcotest.test_case
          "differential: grouped JIT vs per-monitor tree, shared triggers, 100 pinned seeds" `Quick
          test_group_differential;
      ] );
  ]
