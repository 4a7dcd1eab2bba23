(* Fleet execution (docs/PARALLEL.md): the epoch-barrier protocol's
   determinism contract, the domain pool, and the splittable RNG it is
   seeded from.

   The load-bearing assertion is the differential one: a fleet under
   --domains K must produce the same REPORTs, actions, merged-store
   contents and byte-identical traces for every K >= 1. *)

open Gr_util
module Fleet = Guardrails.Fleet
module D = Guardrails.Deployment
module Store = Gr_runtime.Feature_store
module Event = Gr_trace.Event
module Sink = Gr_trace.Sink
module Tracer = Gr_trace.Tracer

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---------- Pool ---------- *)

let test_pool_runs_all_tasks () =
  List.iter
    (fun domains ->
      Gr_sim.Pool.with_pool ~domains (fun pool ->
          check_int "size" domains (Gr_sim.Pool.size pool);
          let n = 100 in
          let hits = Array.make n 0 in
          (* Tasks only write their own slot; the barrier publishes. *)
          Gr_sim.Pool.run pool (fun i -> hits.(i) <- hits.(i) + 1) n;
          Array.iteri (fun i h -> check_int (Printf.sprintf "task %d ran once" i) 1 h) hits;
          (* The pool is reusable round after round. *)
          Gr_sim.Pool.run pool (fun i -> hits.(i) <- hits.(i) + 1) n;
          check_int "second round" 2 hits.(0)))
    [ 1; 2; 4 ]

let test_pool_propagates_lowest_error () =
  Gr_sim.Pool.with_pool ~domains:3 (fun pool ->
      match Gr_sim.Pool.run pool (fun i -> if i >= 5 then failwith (string_of_int i)) 32 with
      | () -> Alcotest.fail "expected the round to raise"
      | exception Failure msg -> check_int "lowest failing index surfaces" 5 (int_of_string msg))

(* ---------- Rng.split ---------- *)

let test_rng_split_pure_and_indexed () =
  let parent = Rng.create 42 in
  let a = Rng.split parent 0 in
  let b = Rng.split parent 1 in
  let a' = Rng.split parent 0 in
  (* Pure: deriving any number of streams never perturbs the parent or
     each other; same (state, index) -> same stream. *)
  check_bool "same index, same stream" true (Rng.int64 a = Rng.int64 a');
  check_bool "distinct indices, distinct streams" true (Rng.int64 a <> Rng.int64 b);
  let parent2 = Rng.create 42 in
  ignore (Rng.int64 parent : int64);
  check_bool "split depends on parent state" true
    (Rng.int64 (Rng.split parent 7) <> Rng.int64 (Rng.split parent2 7));
  (* fork (the historical split) still advances the parent. *)
  let p = Rng.create 9 and q = Rng.create 9 in
  ignore (Rng.fork p : Rng.t);
  check_bool "fork advances the parent" true (Rng.int64 p <> Rng.int64 q)

(* ---------- Differential fleet workload ---------- *)

let monitors =
  {|guardrail par_lat { trigger: { TIMER(0, 100ms) } rule: { AVG(lat, 1s) <= 55 } action: { REPORT("lat high", lat) } }
    guardrail par_beacon { trigger: { ON_CHANGE(GLOBAL(beacon)) } rule: { COUNT(GLOBAL(beacon), 1s) <= 5 } action: { REPORT("beacon burst", GLOBAL(beacon)) } }
    guardrail par_replace { trigger: { TIMER(0, 500ms) } rule: { AVG(lat, 1s) <= 10 } action: { REPLACE("dummy_policy") } }|}

let build ~nodes ~domains ~seed =
  let fleet = Fleet.create ~nodes ~seed ~tracing:true ~domains ~epoch:(Time_ns.ms 50) () in
  Array.iteri
    (fun i node ->
      let kernel = D.kernel node in
      let rng = kernel.Gr_kernel.Kernel.rng in
      D.derive_periodic node ~key:"lat"
        ~every:(Time_ns.us (7919 + (1009 * i)))
        (fun () -> Rng.float rng 100.);
      (* Every third node also publishes a fleet-global beacon — the
         cross-domain save the intent buffer exists for. *)
      if i mod 3 = 0 then
        D.derive_periodic node
          ~key:(Gr_dsl.Ast.global_key "beacon")
          ~every:(Time_ns.us 149993)
          (fun () -> Rng.float rng 10.);
      Gr_kernel.Policy_slot.Registry.register kernel.Gr_kernel.Kernel.registry "dummy_policy"
        { replace = (fun () -> ()); restore = (fun () -> ()); retrain = (fun () -> ()) })
    (Fleet.nodes fleet);
  ignore (Fleet.install_source_exn fleet monitors : Gr_runtime.Engine.handle list);
  fleet

let run fleet = Fleet.run_until fleet (Time_ns.sec 1)

(* Observable state: violation log rendered to strings, fleet action
   counters, merged aggregates, global-tier loads. *)
let observables fleet =
  let engine = Fleet.engine fleet in
  let violations =
    List.map
      (fun (v : Gr_runtime.Engine.violation_record) ->
        Printf.sprintf "%s@%d:%s[%s]" v.monitor v.at v.message
          (String.concat ";"
             (List.map (fun (k, x) -> Printf.sprintf "%s=%h" k x) v.snapshot)))
      (Gr_runtime.Engine.violations engine)
  in
  let agg fn param =
    Store.aggregate (Fleet.store fleet) ~key:"lat" ~fn ~window_ns:1e9 ~param
  in
  ( violations,
    (Fleet.replaces fleet, Fleet.restores fleet, Fleet.retrains fleet),
    ( agg Gr_dsl.Ast.Avg 0.,
      agg Gr_dsl.Ast.Count 0.,
      agg Gr_dsl.Ast.Max 0.,
      agg Gr_dsl.Ast.Quantile 0.9 ),
    Fleet.load_global fleet "beacon" )

let test_par_domain_count_invariant () =
  (* Every domain count, 1 included: byte-identical traces, span ids
     included — the strided channels depend on topology, not K. *)
  let run_with domains =
    let fleet = build ~nodes:4 ~domains ~seed:23 in
    check_int "reports its domain count" domains (Fleet.domains fleet);
    run fleet;
    (observables fleet, List.map Gr_trace.Export.chrome_string (Fleet.tracers fleet))
  in
  let obs1, traces1 = run_with 1 in
  List.iter
    (fun domains ->
      let obs, traces = run_with domains in
      check_bool (Printf.sprintf "K=%d observables match K=1" domains) true (obs = obs1);
      List.iter2
        (Alcotest.(check string) (Printf.sprintf "K=%d trace channel byte-identical" domains))
        traces1 traces)
    [ 2; 3; 4 ]

(* Node monitors alone watch a global key that one node saves: each
   node's ON_CHANGE(GLOBAL(beacon)) watches the tier's entry and runs
   once per beacon save, replayed at the barriers, with the same checks
   and violation logs for every domain count. *)
let test_par_node_global_on_change () =
  let src =
    {|guardrail node_beacon { trigger: { ON_CHANGE(GLOBAL(beacon)) } rule: { LOAD(GLOBAL(beacon)) < 5 } action: { REPORT("beacon high", GLOBAL(beacon)) } }|}
  in
  let run_with domains =
    let fleet = Fleet.create ~nodes:3 ~seed:11 ~domains () in
    let nodes = Fleet.nodes fleet in
    let rng = (D.kernel nodes.(0)).Gr_kernel.Kernel.rng in
    D.derive_periodic nodes.(0)
      ~key:(Gr_dsl.Ast.global_key "beacon")
      ~every:(Time_ns.ms 37)
      (fun () -> Rng.float rng 10.);
    let handles =
      Array.map (fun node -> List.hd (Guardrails.Deployment.install_source_exn node src)) nodes
    in
    Fleet.run_until fleet (Time_ns.sec 1);
    let saves = Store.save_count (Fleet.store fleet) in
    check_bool "the beacon was saved" true (saves > 20);
    check_int "nothing installed on the control engine" 0
      (Gr_runtime.Engine.installed_count (Fleet.engine fleet));
    Array.mapi
      (fun i node ->
        let engine = D.engine node in
        let checks = (Gr_runtime.Engine.Stats.get engine handles.(i)).checks in
        check_int (Printf.sprintf "node %d: one check per beacon save" i) saves checks;
        ( checks,
          List.map
            (fun (v : Gr_runtime.Engine.violation_record) ->
              Printf.sprintf "%s@%d:%s[%s]" v.monitor v.at v.message
                (String.concat ";"
                   (List.map (fun (k, x) -> Printf.sprintf "%s=%h" k x) v.snapshot)))
            (Gr_runtime.Engine.violations engine) ))
      nodes
  in
  let one = run_with 1 in
  check_bool "some beacon violated" true (Array.for_all (fun (_, log) -> log <> []) one);
  check_bool "--domains 3 matches --domains 1" true (run_with 3 = one)

let test_par_span_channels_disjoint () =
  let fleet = build ~nodes:3 ~domains:2 ~seed:5 in
  run fleet;
  let stride = 4 in
  List.iteri
    (fun channel tracer ->
      Sink.iter
        (fun (e : Event.t) ->
          match List.assoc_opt "span" e.Event.args with
          | Some (Event.Int id) ->
            check_int
              (Printf.sprintf "span %d on channel %d" id channel)
              channel (id mod stride)
          | _ -> ())
        (Tracer.events tracer))
    (Fleet.tracers fleet)

let test_par_epoch_validation () =
  (match Fleet.create ~nodes:2 ~seed:1 ~domains:2 ~epoch:Time_ns.zero () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "epoch 0 must be rejected");
  (* Domain counts are clamped to the node count. *)
  let fleet = Fleet.create ~nodes:2 ~seed:1 ~domains:16 () in
  check_int "domains clamped to nodes" 2 (Fleet.domains fleet)

let test_run_epochs_barrier_hook () =
  let fleet = build ~nodes:2 ~domains:2 ~seed:3 in
  let boundaries = ref [] in
  Fleet.run_epochs fleet (Time_ns.ms 220) ~on_barrier:(fun b -> boundaries := b :: !boundaries);
  (* 50ms epochs over 220ms: barriers at 50/100/150/200/220. *)
  check_bool "barriers at every epoch boundary" true
    (List.rev !boundaries
    = [ Time_ns.ms 50; Time_ns.ms 100; Time_ns.ms 150; Time_ns.ms 200; Time_ns.ms 220 ]);
  (* The control clock sits exactly at the limit afterwards. *)
  check_bool "clock at limit" true (Gr_sim.Engine.now (Fleet.sim fleet) = Time_ns.ms 220)

(* ---------- QCheck: epoch-buffered GLOBAL saves ---------- *)

(* The protocol's core algebraic claim: deferring a stream of global
   saves to epoch barriers — replayed at their original timestamps in
   (time, node, local-order) order — is indistinguishable, at every
   barrier, from applying the same interleaving immediately. Windows
   and expiry make this non-trivial: replay happens with the clock
   rewound per-intent, then advanced to the boundary. *)
let epoch_buffer_equiv =
  let open QCheck2 in
  let gen =
    Gen.(
      let* n_nodes = 1 -- 4 in
      let* saves =
        list_size (1 -- 60)
          (triple (0 -- 2999) (0 -- (n_nodes - 1)) (float_bound_inclusive 100.))
      in
      return (n_nodes, saves))
  in
  Test.make ~name:"epoch-buffered GLOBAL saves = sequential interleaving" ~count:200 gen
    (fun (_, saves) ->
      (* One global ordered stream, ms timestamps in [0, 3 epochs),
         tie-broken by node then arrival — the drain's merge order. *)
      let saves =
        List.stable_sort (fun (ta, na, _) (tb, nb, _) -> compare (ta, na) (tb, nb)) saves
      in
      let epoch_ms = 1000 in
      let key = Gr_dsl.Ast.global_key "g" in
      let mk () =
        let clock_ms = ref 0 in
        (Store.create ~clock:(fun () -> Time_ns.ms !clock_ms) (), clock_ms)
      in
      let immediate, im_clock = mk () in
      let buffered, buf_clock = mk () in
      let shapes =
        Gr_dsl.Ast.[ (Avg, 0.); (Count, 0.); (Sum, 0.); (Min, 0.); (Max, 0.);
                     (Stddev, 0.); (Rate, 0.); (Delta, 0.); (Quantile, 0.5) ]
      in
      let read store (fn, param) =
        Store.aggregate store ~key ~fn ~window_ns:(float_of_int (epoch_ms * 1_000_000))
          ~param
      in
      let boundaries = [ epoch_ms; 2 * epoch_ms; 3 * epoch_ms ] in
      List.for_all
        (fun boundary ->
          let lo = boundary - epoch_ms in
          let batch =
            List.filter (fun (t, _, _) -> t >= lo && t < boundary) saves
          in
          (* Immediate: clock tracks each save as it happens. *)
          List.iter
            (fun (t, _, v) ->
              im_clock := t;
              Store.save immediate key v)
            batch;
          im_clock := boundary;
          (* Buffered: the same saves arrive only now, replayed with
             the clock rewound to each original timestamp. *)
          List.iter
            (fun (t, _, v) ->
              buf_clock := t;
              Store.save buffered key v)
            batch;
          buf_clock := boundary;
          List.for_all
            (fun shape ->
              let a = read immediate shape and b = read buffered shape in
              (Float.is_nan a && Float.is_nan b) || a = b)
            shapes
          && Store.load immediate key = Store.load buffered key)
        boundaries)

(* ------------------------------------------------------------------ *)
(* grc --domains CLI surface                                          *)
(* ------------------------------------------------------------------ *)

let grc_exe () =
  List.find_opt Sys.file_exists [ "../bin/grc.exe"; "_build/default/bin/grc.exe" ]

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> In_channel.input_all ic)

let test_grc_domains_cli () =
  match grc_exe () with
  | None -> Alcotest.fail "grc.exe not found next to the test runner"
  | Some grc ->
    let spec = Filename.temp_file "grc-par" ".grd" in
    let oc = open_out spec in
    output_string oc
      {|guardrail par-cli {
  trigger: { TIMER(0, 100ms) },
  rule: { COUNT(x, 1s) <= 1e9 },
  action: { REPORT("never", x) }
}
|};
    close_out oc;
    let ta = Filename.temp_file "grc-par-a" ".json" in
    let tb = Filename.temp_file "grc-par-b" ".json" in
    let tc = Filename.temp_file "grc-par-c" ".json" in
    Fun.protect
      ~finally:(fun () -> List.iter Sys.remove [ spec; ta; tb; tc ])
      (fun () ->
        let quiet args = Sys.command (Printf.sprintf "%s %s >/dev/null 2>&1" grc args) in
        check_int "--domains 0 exits 2" 2
          (quiet (Printf.sprintf "run %s --nodes 2 --domains 0 --until 0.2" spec));
        check_int "--domains=-3 exits 2" 2
          (quiet (Printf.sprintf "run %s --nodes 2 --domains=-3 --until 0.2" spec));
        check_int "--domains six exits 2" 2
          (quiet (Printf.sprintf "run %s --nodes 2 --domains six --until 0.2" spec));
        check_int "--domains auto exits 0" 0
          (quiet (Printf.sprintf "run %s --nodes 2 --domains auto --until 0.2" spec));
        check_int "soak --domains 0 exits 2" 2
          (quiet "soak --scenario fleet --domains 0 --seed 1 --duration 0.05");
        (* The determinism contract at the CLI: the default, --domains 1
           and --domains 2 write byte-identical traces. *)
        check_int "baseline run exits 0" 0
          (quiet (Printf.sprintf "run %s --nodes 3 --until 1 --trace %s" spec ta));
        check_int "--domains 1 run exits 0" 0
          (quiet (Printf.sprintf "run %s --nodes 3 --until 1 --domains 1 --trace %s" spec tb));
        check_int "--domains 2 run exits 0" 0
          (quiet (Printf.sprintf "run %s --nodes 3 --until 1 --domains 2 --trace %s" spec tc));
        check_bool "--domains 1 trace byte-identical to the default" true
          (read_file ta = read_file tb);
        check_bool "--domains 2 trace byte-identical to --domains 1" true
          (read_file tb = read_file tc))

let suite =
  [
    ( "par.pool",
      [
        Alcotest.test_case "pool runs every task exactly once, reusable" `Quick
          test_pool_runs_all_tasks;
        Alcotest.test_case "pool surfaces the lowest failing task's error" `Quick
          test_pool_propagates_lowest_error;
      ] );
    ( "par.rng",
      [ Alcotest.test_case "split is pure, indexed, independent" `Quick
          test_rng_split_pure_and_indexed ] );
    ( "par.fleet",
      [
        Alcotest.test_case "domain count never changes the output" `Quick
          test_par_domain_count_invariant;
        Alcotest.test_case "node ON_CHANGE(GLOBAL) across domains" `Quick
          test_par_node_global_on_change;
        Alcotest.test_case "span ids partition into per-channel residues" `Quick
          test_par_span_channels_disjoint;
        Alcotest.test_case "epoch validation and domain clamping" `Quick
          test_par_epoch_validation;
        Alcotest.test_case "run_epochs hits every barrier" `Quick test_run_epochs_barrier_hook;
        QCheck_alcotest.to_alcotest epoch_buffer_equiv;
      ] );
    ( "par.cli",
      [ Alcotest.test_case "grc --domains validation and trace determinism" `Quick
          test_grc_domains_cli ] );
  ]
