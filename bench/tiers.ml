(* Execution tiers — what does one monitor check cost on each engine?

   The paper's eBPF story compiles monitors to native code; our answer
   is the closure template JIT (Gr_runtime.Jit) over the reference
   tree-walking interpreter (Vm.run). This experiment measures host
   ns/check for both tiers on three monitor shapes:

   - listing2: the Figure 2 guardrail's rule, LOAD(k) <= 0.05 —
     3 instructions, the smallest real monitor we ship;
   - fig2_linear_273: a 68-feature linear model over the block
     layer's feature keys, compiled to exactly 273 instructions — the
     per-check instruction volume the BENCH_scale rows report for the
     fig2 scale monitor, as one rule (the shape a learned-policy
     distillation guardrail takes);
   - scale_avg: Ablation F's AVG(key, 1s) <= 1000 with a registered
     streaming demand — aggregate-dominated, the store does the work.

   Every executor is checked for bit-identical results before any
   timing (the cross-tier differential fuzzer proves this in general;
   here it guards the measurement itself). ns/check is a batch's host
   time divided by its checks, as a median of Common.runs batches
   with min and max, with [monitors] executors round-robined per
   iteration to model a fleet of installed monitors sharing a store. *)

module Vm = Guardrails.Vm
module Jit = Guardrails.Jit
module Store = Guardrails.Store

(* 68 weighted features + 67 adds + threshold compare = 273 IR
   instructions after optimization (each weight is distinct, so CSE
   keeps every term). *)
let n_features = 68

let linear_rule_source =
  let terms =
    List.init n_features (fun i -> Printf.sprintf "%.4f * LOAD(feat_%d)" (0.01 +. (0.013 *. float_of_int i)) i)
  in
  String.concat " + " terms ^ " <= 1000"

let monitor_source ~name ~rule =
  Printf.sprintf
    {|guardrail %s { trigger: { TIMER(0, 100ms) } rule: { %s } action: { REPORT("over") } }|}
    name rule

type shape = {
  sh_name : string;
  sh_rule : string;
  sh_keys : string list;
  sh_agg : bool;  (* register the AVG demand and warm it up *)
}

let shapes =
  [
    { sh_name = "listing2"; sh_rule = "LOAD(false_submit_rate) <= 0.05";
      sh_keys = [ "false_submit_rate" ]; sh_agg = false };
    { sh_name = "fig2_linear_273"; sh_rule = linear_rule_source;
      sh_keys = List.init n_features (Printf.sprintf "feat_%d"); sh_agg = false };
    { sh_name = "scale_avg"; sh_rule = "AVG(key_0, 1s) <= 1000";
      sh_keys = [ "key_0" ]; sh_agg = true };
  ]

(* The 273-instruction rule exceeds the default install-time verifier
   limits (64 slots, 256 registers); the bench raises them — it
   measures executors on the compiled IR, it never installs the
   monitor into an engine. *)
let bench_limits =
  { Guardrails.Verify.default_limits with max_regs = 512; max_slots = 128 }

let compile_rule shape =
  match
    Guardrails.Compile.source ~limits:bench_limits
      (monitor_source ~name:shape.sh_name ~rule:shape.sh_rule)
  with
  | Ok [ m ] -> m
  | Ok _ -> failwith "tiers: expected exactly one monitor"
  | Error e -> failwith (Format.asprintf "tiers: %a" Guardrails.Compile.pp_error e)

(* A standalone store at a fixed clock: 200 in-window samples per key
   (the demand path expires nothing at a constant [now], so every
   tier sees the same scanned counts — checked below). *)
let make_store shape =
  let now = ref 0 in
  let store = Store.create ~clock:(fun () -> !now) ~capacity_per_key:4096 () in
  List.iteri
    (fun ki key ->
      for i = 0 to 199 do
        now := i * 1_000_000;
        Store.save store key (float_of_int (((i * 7) + ki) mod 900))
      done)
    shape.sh_keys;
  now := 200_000_000;
  if shape.sh_agg then begin
    List.iter
      (fun key -> Store.register_demand store ~key ~fn:Gr_dsl.Ast.Avg ~window_ns:1e9 ~param:0.)
      shape.sh_keys;
    (* drain the registration's first expiry so measured checks are
       the steady state *)
    List.iter
      (fun key ->
        ignore (Store.aggregate store ~key ~fn:Gr_dsl.Ast.Avg ~window_ns:1e9 ~param:0. : float))
      shape.sh_keys
  end;
  store

let build_exec ~tier ~store ~slots rule : unit -> Vm.result =
  match (tier : Vm.tier) with
  | Vm.Tree ->
    let static_cost_ns = Vm.static_cost_ns rule in
    fun () -> Vm.run ~static_cost_ns ~store ~slots rule
  | Vm.Jit ->
    let j = Jit.compile ~store ~slots rule in
    fun () -> Jit.run j

let assert_equivalent shape (results : (Vm.tier * Vm.result) list) =
  match results with
  | [] | [ _ ] -> ()
  | (_, r0) :: rest ->
    List.iter
      (fun ((t : Vm.tier), (r : Vm.result)) ->
        if
          Int64.bits_of_float r.value <> Int64.bits_of_float r0.value
          || r.insts_executed <> r0.insts_executed
          || r.samples_scanned <> r0.samples_scanned
          || Int64.bits_of_float r.est_cost_ns <> Int64.bits_of_float r0.est_cost_ns
        then
          failwith
            (Printf.sprintf "tiers: %s diverges on %s (value %.17g vs %.17g)" (Vm.tier_to_string t)
               shape.sh_name r.value r0.value))
      rest

let bench_ns ~iters execs =
  let m = Array.length execs in
  snd
    (Common.measure ~per:(float_of_int (iters * m)) (fun () () ->
         for _ = 1 to iters do
           for i = 0 to m - 1 do
             ignore ((Array.unsafe_get execs i) () : Vm.result)
           done
         done))

type row = {
  r_monitor : string;
  r_insts : int;
  r_monitors : int;
  r_tier : Vm.tier;
  r_ns : Common.timing;
  r_speedup : Common.timing;  (* vs the tree tier at the same (monitor, count) *)
}

let run ~json =
  let monitor_counts = if !Common.smoke then [ 1; 8 ] else [ 1; 16; 64 ] in
  let rows = ref [] in
  List.iter
    (fun shape ->
      let m = compile_rule shape in
      let rule = m.Guardrails.Monitor.rule in
      let slots = m.Guardrails.Monitor.slots in
      let insts = Array.length rule.Guardrails.Ir.insts in
      if shape.sh_name = "fig2_linear_273" && insts <> 273 then
        failwith (Printf.sprintf "tiers: linear rule compiled to %d insts, wanted 273" insts);
      List.iter
        (fun count ->
          let store = make_store shape in
          (* independent executors share the store, like a fleet of
             installed monitors; each jit instance owns its frame *)
          let per_tier =
            List.map
              (fun tier ->
                (tier, Array.init count (fun _ -> build_exec ~tier ~store ~slots rule)))
              Vm.all_tiers
          in
          assert_equivalent shape (List.map (fun (t, ex) -> (t, ex.(0) ())) per_tier);
          let base = if !Common.smoke then 20_000 else 200_000 in
          let iters = max 500 (base / (max 1 insts / 3 + 1) / count) in
          let timed = List.map (fun (t, ex) -> (t, bench_ns ~iters ex)) per_tier in
          let tree_ns = List.assoc Vm.Tree timed in
          List.iter
            (fun (tier, ns) ->
              rows :=
                {
                  r_monitor = shape.sh_name;
                  r_insts = insts;
                  r_monitors = count;
                  r_tier = tier;
                  r_ns = ns;
                  r_speedup = Common.ratio tree_ns ns;
                }
                :: !rows)
            timed)
        monitor_counts)
    shapes;
  let rows = List.rev !rows in
  if json then
    Common.print_json
      (Common.Json.Obj
         [
           ("experiment", Str "tiers");
           ("host_cores", Common.json_int Common.host_cores);
           ( "rows",
             Common.Json.Arr
               (List.map
                  (fun r ->
                    Common.Json.Obj
                      [
                        ("monitor", Str r.r_monitor);
                        ("insts", Common.json_int r.r_insts);
                        ("monitors", Common.json_int r.r_monitors);
                        ("tier", Str (Vm.tier_to_string r.r_tier));
                        ("ns_per_check", Common.json_timing r.r_ns);
                        ("speedup_vs_tree", Common.json_timing r.r_speedup);
                      ])
                  rows) );
         ])
  else begin
    Common.section "Execution tiers: ns/check by tier x monitor count";
    Printf.printf "%-18s %6s %9s %6s %28s %24s\n" "monitor" "insts" "monitors" "tier"
      "ns/check [min, max]" "vs tree [min, max]";
    List.iter
      (fun r ->
        Printf.printf "%-18s %6d %9d %6s %28s %24s\n" r.r_monitor r.r_insts r.r_monitors
          (Vm.tier_to_string r.r_tier)
          (Common.timing_str "%.1f" r.r_ns)
          (Common.timing_str "%.2fx" r.r_speedup))
      rows;
    match
      List.find_opt (fun r -> r.r_monitor = "fig2_linear_273" && r.r_tier = Vm.Jit) rows
    with
    | Some r ->
      Printf.printf "\nJIT on the 273-instruction monitor: %.2fx over the tree VM %s\n"
        r.r_speedup.median
        (if r.r_speedup.median >= 10. then "(target >= 10x met)" else "(target >= 10x MISSED)")
    | None -> ()
  end
