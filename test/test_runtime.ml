(* Tests for gr_runtime: feature store, VM, and the monitor engine. *)

open Gr_util
module Store = Gr_runtime.Feature_store
module Vm = Gr_runtime.Vm
module Engine = Gr_runtime.Engine
module Compile = Gr_compiler.Compile
module Monitor = Gr_compiler.Monitor

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

(* ---------- Feature store ---------- *)

let make_store () =
  let clock = ref 0 in
  let store = Store.create ~clock:(fun () -> !clock) () in
  (clock, store)

let test_store_load_default () =
  let _, store = make_store () in
  check_float "missing key loads 0" 0. (Store.load store "nope");
  check_bool "not mem" false (Store.mem store "nope")

let test_store_latest_value () =
  let clock, store = make_store () in
  Store.save store "k" 1.;
  clock := 10;
  Store.save store "k" 2.;
  check_float "latest wins" 2. (Store.load store "k");
  check_int "save count" 2 (Store.save_count store)

let test_store_window_expiry () =
  let clock, store = make_store () in
  clock := 0;
  Store.save store "k" 10.;
  clock := 1_000_000_000;
  Store.save store "k" 20.;
  clock := 1_500_000_000;
  (* Window of 1s: only the sample at t=1s is inside (t=0 is out). *)
  check_float "avg over window" 20.
    (Store.aggregate store ~key:"k" ~fn:Gr_dsl.Ast.Avg ~window_ns:1e9 ~param:0.);
  check_float "count over window" 1.
    (Store.aggregate store ~key:"k" ~fn:Gr_dsl.Ast.Count ~window_ns:1e9 ~param:0.);
  check_float "wide window sees both" 15.
    (Store.aggregate store ~key:"k" ~fn:Gr_dsl.Ast.Avg ~window_ns:2e9 ~param:0.)

let test_store_aggregates () =
  let clock, store = make_store () in
  List.iteri
    (fun i v ->
      clock := (i + 1) * 1000;
      Store.save store "k" v)
    [ 4.; 1.; 3.; 2. ];
  let agg fn param = Store.aggregate store ~key:"k" ~fn ~window_ns:1e9 ~param in
  check_float "sum" 10. (agg Gr_dsl.Ast.Sum 0.);
  check_float "min" 1. (agg Gr_dsl.Ast.Min 0.);
  check_float "max" 4. (agg Gr_dsl.Ast.Max 0.);
  check_float "count" 4. (agg Gr_dsl.Ast.Count 0.);
  check_float "rate = sum/window_sec" 10. (agg Gr_dsl.Ast.Rate 0.);
  check_float "median" 2.5 (agg Gr_dsl.Ast.Quantile 0.5);
  check_bool "stddev" true (Float.abs (agg Gr_dsl.Ast.Stddev 0. -. Stats.stddev [| 4.; 1.; 3.; 2. |]) < 1e-9)

let test_store_empty_window_zero () =
  let _, store = make_store () in
  List.iter
    (fun fn ->
      check_float "empty aggregate is 0" 0.
        (Store.aggregate store ~key:"nope" ~fn ~window_ns:1e9 ~param:0.5))
    [ Gr_dsl.Ast.Avg; Sum; Count; Rate; Min; Max; Stddev; Quantile; Delta ]

let test_store_capacity_bounded () =
  let clock = ref 0 in
  let store = Store.create ~clock:(fun () -> !clock) ~capacity_per_key:8 () in
  for i = 1 to 100 do
    clock := i;
    Store.save store "k" (float_of_int i)
  done;
  check_float "only last 8 retained" 8.
    (Store.aggregate store ~key:"k" ~fn:Gr_dsl.Ast.Count ~window_ns:1e9 ~param:0.)

let test_store_on_save () =
  let _, store = make_store () in
  let seen = ref [] in
  Store.on_save store (fun k v -> seen := (k, v) :: !seen);
  Store.save store "a" 1.;
  Store.save store "b" 2.;
  Alcotest.(check (list (pair string (float 0.)))) "notified in order" [ ("a", 1.); ("b", 2.) ]
    (List.rev !seen)

(* Aggregates must agree with a naive recomputation over the retained
   samples. *)
let store_aggregate_property =
  QCheck2.Test.make ~name:"store aggregates match naive reference" ~count:300
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 40) (pair (int_range 0 2_000_000_000) (float_bound_inclusive 100.)))
        (oneofl [ Gr_dsl.Ast.Avg; Sum; Count; Min; Max; Stddev; Delta ]))
    (fun (samples, fn) ->
      let samples = List.sort (fun (a, _) (b, _) -> compare a b) samples in
      let clock = ref 0 in
      let store = Store.create ~clock:(fun () -> !clock) () in
      List.iter
        (fun (t, v) ->
          clock := t;
          Store.save store "k" v)
        samples;
      clock := 2_000_000_000;
      let window_ns = 1e9 in
      let inside =
        List.filter_map
          (fun (t, v) -> if float_of_int (2_000_000_000 - t) < window_ns then Some v else None)
          samples
        |> Array.of_list
      in
      let expected =
        match fn with
        | Gr_dsl.Ast.Avg -> if Array.length inside = 0 then 0. else Stats.mean inside
        | Sum -> Array.fold_left ( +. ) 0. inside
        | Count -> float_of_int (Array.length inside)
        | Min -> if Array.length inside = 0 then 0. else Array.fold_left Float.min inside.(0) inside
        | Max -> if Array.length inside = 0 then 0. else Array.fold_left Float.max inside.(0) inside
        | Stddev -> Stats.stddev inside
        | Delta -> (
          match Array.length inside with
          | 0 -> 0.
          | n -> inside.(n - 1) -. inside.(0))
        | Rate | Quantile -> 0.
      in
      let got = Store.aggregate store ~key:"k" ~fn ~window_ns ~param:0. in
      Float.abs (got -. expected) < 1e-6)

(* ---------- Incremental (demand-registered) aggregation ---------- *)

let all_aggs : Gr_dsl.Ast.agg list =
  [ Gr_dsl.Ast.Count; Sum; Rate; Avg; Min; Max; Stddev; Quantile; Delta ]

(* Exact for the order-independent functions; tolerance for the
   running-sum family, whose incremental add/subtract order differs
   from the naive left fold. *)
let agg_close (fn : Gr_dsl.Ast.agg) inc naive =
  match fn with
  | Count | Min | Max | Delta | Quantile -> inc = naive
  | Sum | Rate | Avg -> Float.abs (inc -. naive) <= 1e-6 *. Float.max 1. (Float.abs naive)
  | Stddev -> Float.abs (inc -. naive) <= 1e-4 *. Float.max 1. (Float.abs naive)

(* Randomized interleavings of saves, clock advances and checks: the
   streaming state must agree with the naive full scan (forced via the
   oracle flag on the same store, so both sides see identical samples)
   for every aggregate constructor, including ring-capacity eviction
   (small capacities), growth clamped to a capacity that is not a
   power of two, and time expiry (advances beyond the window). The
   demand is registered before the first op, or before op [k] when
   [late = Some k]: that replays the retained samples, and later saves
   grow the ring under a live demand. *)
let incremental_equivalence_property =
  let open QCheck2.Gen in
  let op =
    frequency
      [
        (4, map (fun v -> `Save v) (float_bound_inclusive 100.));
        (3, map (fun dt -> `Advance dt) (int_range 0 700_000_000));
        (2, pure `Check);
      ]
  in
  let gen =
    pair
      (quad
         (oneofl all_aggs)
         (float_range 0.05 0.95)
         (oneofl [ 1; 3; 4; 16; 37; 4096 ])
         (list_size (int_range 1 120) op))
      (opt ~ratio:0.5 (int_range 1 60))
  in
  QCheck2.Test.make ~name:"incremental aggregates match naive oracle" ~count:400 gen
    (fun ((fn, param, capacity, ops), late) ->
      let param = if fn = Gr_dsl.Ast.Quantile then param else 0. in
      let clock = ref 0 in
      let store = Store.create ~clock:(fun () -> !clock) ~capacity_per_key:capacity () in
      let window_ns = 1e9 in
      let register () = Store.register_demand store ~key:"k" ~fn ~window_ns ~param in
      if late = None then register ();
      let ok = ref true in
      let check () =
        let inc = Store.aggregate store ~key:"k" ~fn ~window_ns ~param in
        Store.set_force_naive store true;
        let naive = Store.aggregate store ~key:"k" ~fn ~window_ns ~param in
        Store.set_force_naive store false;
        if not (agg_close fn inc naive) then ok := false
      in
      List.iteri
        (fun i op ->
          if late = Some i then register ();
          match op with
          | `Save v -> Store.save store "k" v
          | `Advance dt -> clock := !clock + dt
          | `Check -> check ())
        ops;
      check ();
      !ok)

let test_incremental_empty_and_single () =
  List.iter
    (fun fn ->
      let clock = ref 0 in
      let store = Store.create ~clock:(fun () -> !clock) () in
      Store.register_demand store ~key:"k" ~fn ~window_ns:1e9 ~param:0.5;
      let agg () = Store.aggregate store ~key:"k" ~fn ~window_ns:1e9 ~param:0.5 in
      check_float "empty window is 0" 0. (agg ());
      Store.save store "k" 7.;
      let single = agg () in
      let expected =
        match fn with
        | Gr_dsl.Ast.Count -> 1.
        | Sum -> 7.
        | Rate -> 7.
        | Avg | Min | Max | Quantile -> 7.
        | Stddev | Delta -> 0.
      in
      check_float "single sample" expected single;
      (* Expire it: back to the empty-window result. *)
      clock := 2_000_000_000;
      check_float "expired back to 0" 0. (agg ()))
    all_aggs

let test_incremental_registration_replays () =
  (* A demand registered after samples exist must agree immediately. *)
  let clock = ref 0 in
  let store = Store.create ~clock:(fun () -> !clock) () in
  List.iteri
    (fun i v ->
      clock := (i + 1) * 1000;
      Store.save store "k" v)
    [ 4.; 1.; 3.; 2. ];
  Store.register_demand store ~key:"k" ~fn:Gr_dsl.Ast.Avg ~window_ns:1e9 ~param:0.;
  Store.register_demand store ~key:"k" ~fn:Gr_dsl.Ast.Min ~window_ns:1e9 ~param:0.;
  check_float "avg replayed" 2.5 (Store.aggregate store ~key:"k" ~fn:Gr_dsl.Ast.Avg ~window_ns:1e9 ~param:0.);
  check_float "min replayed" 1. (Store.aggregate store ~key:"k" ~fn:Gr_dsl.Ast.Min ~window_ns:1e9 ~param:0.);
  check_int "both were hits" 2 (Store.agg_hit_count store)

let test_incremental_refcounting () =
  let _, store = make_store () in
  let reg () = Store.register_demand store ~key:"k" ~fn:Gr_dsl.Ast.Sum ~window_ns:1e9 ~param:0. in
  let rel () = Store.release_demand store ~key:"k" ~fn:Gr_dsl.Ast.Sum ~window_ns:1e9 ~param:0. in
  reg ();
  reg ();
  check_int "shared shape takes one slot" 1 (Store.demand_count store);
  rel ();
  check_int "survives first release" 1 (Store.demand_count store);
  ignore (Store.aggregate store ~key:"k" ~fn:Gr_dsl.Ast.Sum ~window_ns:1e9 ~param:0. : float);
  check_int "still a hit" 1 (Store.agg_hit_count store);
  rel ();
  check_int "freed on last release" 0 (Store.demand_count store);
  ignore (Store.aggregate store ~key:"k" ~fn:Gr_dsl.Ast.Sum ~window_ns:1e9 ~param:0. : float);
  check_int "now a miss" 1 (Store.agg_miss_count store);
  (* Releasing a shape never registered is a no-op. *)
  Store.release_demand store ~key:"zzz" ~fn:Gr_dsl.Ast.Max ~window_ns:1e9 ~param:0.

let test_incremental_amortized_scan_cost () =
  let clock = ref 0 in
  let store = Store.create ~clock:(fun () -> !clock) () in
  Store.register_demand store ~key:"k" ~fn:Gr_dsl.Ast.Avg ~window_ns:1e9 ~param:0.;
  for i = 1 to 100 do
    clock := i * 1000;
    Store.save store "k" (float_of_int i)
  done;
  let agg () = Store.aggregate_result store ~key:"k" ~fn:Gr_dsl.Ast.Avg ~window_ns:1e9 ~param:0. in
  let r = agg () in
  check_bool "incremental" true r.Store.incremental;
  check_int "steady state scans nothing" 0 r.Store.scanned;
  (* Push the whole window out: one check pays the expiry... *)
  clock := 3_000_000_000;
  check_int "expiry charged once" 100 (agg ()).Store.scanned;
  (* ...and the next is O(1) again. *)
  check_int "then O(1) again" 0 (agg ()).Store.scanned

(* ---------- Fleet-tier merged aggregation ---------- *)

let make_fleet_store ~capacity ~shards:n =
  let clock = ref 0 in
  let mk () = Store.create ~clock:(fun () -> !clock) ~capacity_per_key:capacity () in
  let fleet = mk () in
  let shards = Array.init n (fun _ -> mk ()) in
  Store.link fleet shards;
  (clock, fleet, shards)

(* The fleet analogue of [incremental_equivalence_property]: saves land
   on random shards, and every read of the fleet store — which merges
   the shards' exported streaming states — must agree with the naive
   concat-and-scan oracle over the same retained samples. Small
   capacities force ring eviction at shard boundaries; advances beyond
   the window force retirement. As in the single-store property,
   [late = Some k] registers the demand before op [k] instead of
   first; reads before it take the naive path. *)
let merge_equivalence_property =
  let open QCheck2.Gen in
  let op =
    frequency
      [
        (4, map2 (fun i v -> `Save (i, v)) (int_range 0 3) (float_bound_inclusive 100.));
        (3, map (fun dt -> `Advance dt) (int_range 0 700_000_000));
        (2, pure `Check);
      ]
  in
  let gen =
    triple
      (quad
         (oneofl all_aggs)
         (float_range 0.05 0.95)
         (oneofl [ 1; 3; 4; 16; 37; 4096 ])
         (int_range 2 4))
      (list_size (int_range 1 120) op)
      (opt ~ratio:0.5 (int_range 1 60))
  in
  QCheck2.Test.make ~name:"merged shard aggregates match naive concat-and-scan" ~count:300 gen
    (fun ((fn, param, capacity, n), ops, late) ->
      let param = if fn = Gr_dsl.Ast.Quantile then param else 0. in
      let clock, fleet, shards = make_fleet_store ~capacity ~shards:n in
      let window_ns = 1e9 in
      let registered = ref false in
      let register () =
        Store.register_demand fleet ~key:"k" ~fn ~window_ns ~param;
        registered := true
      in
      if late = None then register ();
      let ok = ref true in
      let check () =
        let merged = Store.aggregate_result fleet ~key:"k" ~fn ~window_ns ~param in
        if !registered && not merged.Store.incremental then ok := false;
        Store.set_force_naive fleet true;
        let naive = Store.aggregate fleet ~key:"k" ~fn ~window_ns ~param in
        Store.set_force_naive fleet false;
        if not (agg_close fn merged.Store.value naive) then ok := false
      in
      List.iteri
        (fun i op ->
          if late = Some i then register ();
          match op with
          | `Save (i, v) -> Store.save shards.(i mod n) "k" v
          | `Advance dt -> clock := !clock + dt
          | `Check -> check ())
        ops;
      check ();
      !ok)

let test_merge_union_laws () =
  let clock, fleet, shards = make_fleet_store ~capacity:4096 ~shards:3 in
  (* Integer-valued samples at distinct timestamps: float sums are
     exact, so unit and associativity hold structurally, not just up
     to rounding. *)
  let feed i vals =
    List.iteri
      (fun j v ->
        clock := (i * 100) + j + 1;
        Store.save shards.(i) "k" v)
      vals
  in
  feed 0 [ 4.; 9. ];
  feed 1 [ 1. ];
  feed 2 [ 7.; 2.; 5. ];
  clock := 1_000;
  let window_ns = 1e9 in
  List.iter
    (fun fn ->
      let param = if fn = Gr_dsl.Ast.Quantile then 0.5 else 0. in
      let export s = Store.export_state s ~key:"k" ~fn ~window_ns ~param in
      let a = export shards.(0) and b = export shards.(1) and c = export shards.(2) in
      let open Store.Merge in
      check_bool "empty is a left unit" true (union empty a = a);
      check_bool "empty is a right unit" true (union a empty = a);
      check_bool "union associates" true (union (union a b) c = union a (union b c));
      let folded = List.fold_left union empty [ a; b; c ] in
      Store.set_force_naive fleet true;
      let naive = Store.aggregate fleet ~key:"k" ~fn ~window_ns ~param in
      Store.set_force_naive fleet false;
      check_bool "folded value = naive concat-and-scan" true
        (agg_close fn (value ~fn ~window_ns ~param folded) naive))
    all_aggs

let test_merge_shard_boundary_eviction () =
  (* Capacity 2 per key: shard 0's oldest samples are ring-evicted
     while shard 1 keeps sparse old ones — the merged window must
     reflect exactly the union of what each shard actually retains. *)
  let clock, fleet, shards = make_fleet_store ~capacity:2 ~shards:2 in
  Store.register_demand fleet ~key:"k" ~fn:Gr_dsl.Ast.Sum ~window_ns:1e9 ~param:0.;
  Store.register_demand fleet ~key:"k" ~fn:Gr_dsl.Ast.Delta ~window_ns:1e9 ~param:0.;
  clock := 10;
  Store.save shards.(1) "k" 100.;
  List.iteri
    (fun i v ->
      clock := 20 + i;
      Store.save shards.(0) "k" v)
    [ 1.; 2.; 3.; 4. ];
  (* Shard 0 retains only [3.; 4.]; shard 1 retains [100.]. *)
  check_float "sum over retained union" 107.
    (Store.aggregate fleet ~key:"k" ~fn:Gr_dsl.Ast.Sum ~window_ns:1e9 ~param:0.);
  check_float "delta spans shards (oldest on shard 1)" (-96.)
    (Store.aggregate fleet ~key:"k" ~fn:Gr_dsl.Ast.Delta ~window_ns:1e9 ~param:0.);
  (* Retire shard 1's sample by time: the window head moves to shard 0. *)
  clock := 1_000_000_021;
  check_float "sum after cross-shard retirement" 7.
    (Store.aggregate fleet ~key:"k" ~fn:Gr_dsl.Ast.Sum ~window_ns:1e9 ~param:0.);
  check_float "delta after cross-shard retirement" 1.
    (Store.aggregate fleet ~key:"k" ~fn:Gr_dsl.Ast.Delta ~window_ns:1e9 ~param:0.);
  (* Routing is fixed once, before any entry exists: [link] refuses a
     store that already holds an entry and a shard linked a second
     time. *)
  let refused = Invalid_argument "Feature_store.link: stores must be unlinked and empty" in
  let _, used = make_store () and _, tier = make_store () in
  Store.save used "k" 1.;
  Alcotest.check_raises "link refuses a store with an entry" refused (fun () ->
      Store.link tier [| used |]);
  let _, _, linked = make_fleet_store ~capacity:2 ~shards:1 in
  Alcotest.check_raises "link refuses a linked shard" refused (fun () ->
      Store.link tier linked)

(* ---------- Ingest cost ---------- *)

(* Saves onto running-sum demands allocate nothing, through a save
   handle and by key, both while the ring has room and once every
   save evicts its oldest sample. An engine subscribed to the store
   sees every save. 2^14 + 1 warm-up saves grow the arrays to the
   full 2^15 capacity, leaving room for the first measured 10k; the
   capacity's worth of saves after that wraps the ring. *)
let test_store_save_allocates_nothing () =
  let capacity = 1 lsl 15 in
  let clock = ref 0 in
  let store = Store.create ~clock:(fun () -> !clock) ~capacity_per_key:capacity () in
  ignore (Engine.create ~kernel:(Gr_kernel.Kernel.create ~seed:1) ~store () : Engine.t);
  let paths =
    let h = Store.save_handle store "by_handle" in
    [ ("save handle", "by_handle", fun v -> Store.handle_save h v);
      ("save by key", "by_key", fun v -> Store.save store "by_key" v) ]
  in
  List.iter
    (fun (name, key, save) ->
      List.iter
        (fun fn -> Store.register_demand store ~key ~fn ~window_ns:1e9 ~param:0.)
        [ Gr_dsl.Ast.Count; Sum; Avg; Stddev; Delta ];
      let saves n =
        for i = 1 to n do
          clock := !clock + 1000;
          save (if i land 1 = 0 then 1.5 else 4.25)
        done
      in
      let words n =
        let w0 = Gc.minor_words () in
        saves n;
        Gc.minor_words () -. w0
      in
      saves ((capacity / 2) + 1);
      Alcotest.(check (float 0.)) (name ^ ": 10k saves below capacity") 0. (words 10_000);
      saves capacity;
      Alcotest.(check (float 0.)) (name ^ ": 10k evicting saves") 0. (words 10_000);
      check_int (name ^ ": ring holds the capacity") capacity
        (Store.samples_in_window store ~key ~window_ns:1e12))
    paths

(* A save handle acts like [save] on its key: it creates no entry
   before its first save, and on a fleet node a global key's save goes
   to the interception hook, a plain key's to the node itself. *)
let test_store_save_handle_routing () =
  let _, tier, shards = make_fleet_store ~capacity:16 ~shards:1 in
  let node = shards.(0) in
  let published = ref [] in
  Store.set_global_publish node (Some (fun k v -> published := (k, v) :: !published));
  let global = Gr_dsl.Ast.global_key "g" in
  let local = Store.save_handle node "k" and crossing = Store.save_handle node global in
  check_bool "no entry before the first save" false (Store.mem node "k");
  Store.handle_save local 2.;
  Store.handle_save local 3.;
  check_float "latest" 3. (Store.load node "k");
  check_int "node saves" 2 (Store.save_count node);
  Store.handle_save crossing 7.;
  Alcotest.(check (list (pair string (float 0.)))) "global save intercepted" [ (global, 7.) ]
    !published;
  check_bool "tier untouched" false (Store.mem tier global);
  Store.set_global_publish node None;
  Store.handle_save crossing 8.;
  check_float "direct write once the hook is gone" 8. (Store.load tier global)

(* A key's memory follows the samples it holds, not the capacity:
   1000 keys of one sample each at the default 4096. *)
let test_store_footprint_follows_samples () =
  let store = Store.create ~clock:(fun () -> 0) () in
  for i = 0 to 999 do
    Store.save store (Printf.sprintf "key_%d" i) 1.
  done;
  let per_key = Obj.reachable_words (Obj.repr store) / 1000 in
  check_bool (Printf.sprintf "%d words per key < 64" per_key) true (per_key < 64)

(* ---------- VM ---------- *)

let compile_rule src =
  let m =
    List.hd
      (Compile.source_exn
         (Printf.sprintf
            {|guardrail g { trigger: { TIMER(0, 1s) } rule: { %s } action: { REPORT("m") } }|}
            src))
  in
  (m.Monitor.rule, m.Monitor.slots)

let test_vm_division_by_zero () =
  let _, store = make_store () in
  let rule, slots = compile_rule "LOAD(a) / LOAD(b) == 0" in
  Store.save store "a" 5.;
  Store.save store "b" 0.;
  check_float "x/0 = 0, rule holds" 1. (Vm.run ~store ~slots rule).value

let test_vm_cost_accounting () =
  let clock, store = make_store () in
  let rule, slots = compile_rule "AVG(lat, 1s) < 100" in
  for i = 1 to 10 do
    clock := i * 1000;
    Store.save store "lat" 1.
  done;
  let r = Vm.run ~store ~slots rule in
  check_int "scanned all samples" 10 r.samples_scanned;
  check_bool "cost grows with samples" true (r.est_cost_ns > Vm.static_cost_ns rule);
  check_int "executed every instruction" (Array.length rule.Gr_compiler.Ir.insts) r.insts_executed

let test_vm_static_cost_hoisted () =
  let clock, store = make_store () in
  let rule, slots = compile_rule "AVG(lat, 1s) < 100 && LOAD(lat) >= 0" in
  for i = 1 to 10 do
    clock := i * 1000;
    Store.save store "lat" 1.
  done;
  (* Precomputing the static instruction cost must not change the
     charged total — only who sums it. *)
  let per_run = Vm.run ~store ~slots rule in
  let hoisted = Vm.run ~static_cost_ns:(Vm.static_cost_ns rule) ~store ~slots rule in
  check_float "identical charged cost" per_run.est_cost_ns hoisted.est_cost_ns;
  check_bool "static part positive" true (Vm.static_cost_ns rule > 0.)

(* ---------- Engine ---------- *)

let make_deployment ?config () =
  let kernel = Gr_kernel.Kernel.create ~seed:1 in
  let d = Guardrails.Deployment.create ~kernel ?config () in
  (kernel, d)

let simple_rail ?(name = "g") ?(trigger = "TIMER(0, 10ms)") ?(rule = "LOAD(healthy) == 1")
    ?(actions = [ {|REPORT("violated", healthy)|} ]) () =
  Printf.sprintf "guardrail %s { trigger: { %s } rule: { %s } action: { %s } }" name trigger rule
    (String.concat "; " actions)

let test_engine_registers_and_releases_demands () =
  let _, d = make_deployment () in
  let store = Guardrails.Deployment.store d in
  let rail name = simple_rail ~name ~rule:"AVG(lat, 1s) < 100" () in
  let h1 = List.hd (Guardrails.Deployment.install_source_exn d (rail "g1")) in
  let h2 = List.hd (Guardrails.Deployment.install_source_exn d (rail "g2")) in
  (* Identical rule terms share one streaming slot. *)
  check_int "shared demand" 1 (Guardrails.Store.demand_count store);
  Guardrails.Deployment.uninstall d h1;
  check_int "survives one uninstall" 1 (Guardrails.Store.demand_count store);
  Guardrails.Deployment.uninstall d h2;
  check_int "released with the last monitor" 0 (Guardrails.Store.demand_count store)

let test_engine_checks_hit_incremental_path () =
  let kernel, d = make_deployment () in
  Guardrails.Deployment.save d "lat" 1.;
  ignore
    (Guardrails.Deployment.install_source_exn d
       (simple_rail ~rule:"AVG(lat, 1s) < 100" ())
      : Engine.handle list);
  Gr_kernel.Kernel.run_until kernel (Time_ns.ms 105);
  let store = Guardrails.Deployment.store d in
  check_bool "timer checks served incrementally" true (Guardrails.Store.agg_hit_count store >= 11)

let test_engine_timer_checks () =
  let kernel, d = make_deployment () in
  Guardrails.Deployment.save d "healthy" 1.;
  let handles = Guardrails.Deployment.install_source_exn d (simple_rail ()) in
  let h = List.hd handles in
  Gr_kernel.Kernel.run_until kernel (Time_ns.ms 105);
  let stats = Engine.Stats.get (Guardrails.Deployment.engine d) h in
  (* TIMER(0, 10ms): fires at 0, 10, ..., 100 -> 11 checks. *)
  check_int "11 checks in 105ms" 11 stats.checks;
  check_int "no violations" 0 stats.violations;
  check_bool "overhead accounted" true (stats.overhead_ns > 0.)

let test_engine_violation_and_report () =
  let kernel, d = make_deployment () in
  Guardrails.Deployment.save d "healthy" 0.;
  let handles = Guardrails.Deployment.install_source_exn d (simple_rail ()) in
  Gr_kernel.Kernel.run_until kernel (Time_ns.ms 25);
  let stats = Engine.Stats.get (Guardrails.Deployment.engine d) (List.hd handles) in
  (* checks at 0, 10, 20ms. *)
  check_int "violations" 3 stats.violations;
  let viols = Engine.violations (Guardrails.Deployment.engine d) in
  check_int "reported three times" 3 (List.length viols);
  let v = List.hd viols in
  Alcotest.(check string) "message" "violated" v.Engine.message;
  Alcotest.(check (list (pair string (float 0.)))) "snapshot" [ ("healthy", 0.) ] v.Engine.snapshot

let test_engine_function_trigger () =
  let kernel, d = make_deployment () in
  Guardrails.Deployment.save d "healthy" 1.;
  let handles =
    Guardrails.Deployment.install_source_exn d (simple_rail ~trigger:{|FUNCTION("my:hook")|} ())
  in
  Gr_kernel.Hooks.fire kernel.hooks "my:hook" [];
  Gr_kernel.Hooks.fire kernel.hooks "my:hook" [];
  Gr_kernel.Hooks.fire kernel.hooks "other" [];
  let stats = Engine.Stats.get (Guardrails.Deployment.engine d) (List.hd handles) in
  check_int "checked per hook firing" 2 stats.checks

let test_engine_on_change_trigger () =
  let _, d = make_deployment () in
  Guardrails.Deployment.save d "healthy" 1.;
  let handles =
    Guardrails.Deployment.install_source_exn d
      (simple_rail ~trigger:"ON_CHANGE(watched)" ~rule:"LOAD(watched) < 10" ())
  in
  Guardrails.Deployment.save d "watched" 1.;
  Guardrails.Deployment.save d "watched" 2.;
  Guardrails.Deployment.save d "unrelated" 99.;
  let stats = Engine.Stats.get (Guardrails.Deployment.engine d) (List.hd handles) in
  check_int "checked per save of watched key" 2 stats.checks;
  check_int "no violations" 0 stats.violations

let test_engine_save_action_and_control_key () =
  let kernel, d = make_deployment () in
  let flipped = ref [] in
  Guardrails.Deployment.bind_control_key d ~key:"ml_enabled" (fun v -> flipped := v :: !flipped);
  Guardrails.Deployment.save d "healthy" 0.;
  ignore
    (Guardrails.Deployment.install_source_exn d
       (simple_rail ~actions:[ "SAVE(ml_enabled, false)" ] ())
      : Engine.handle list);
  Gr_kernel.Kernel.run_until kernel (Time_ns.ms 15);
  check_bool "control key flipped to 0" true (List.mem 0. !flipped);
  check_float "stored" 0. (Guardrails.Store.load (Guardrails.Deployment.store d) "ml_enabled")

let test_engine_replace_restore_retrain () =
  let kernel, d = make_deployment () in
  let replaced = ref 0 and restored = ref 0 and retrained = ref 0 in
  Gr_kernel.Kernel.register_policy kernel ~name:"p"
    ~replace:(fun () -> incr replaced)
    ~restore:(fun () -> incr restored)
    ~retrain:(fun () -> incr retrained)
    ();
  Guardrails.Deployment.save d "healthy" 0.;
  ignore
    (Guardrails.Deployment.install_source_exn d
       (simple_rail ~trigger:"TIMER(0, 10ms, 15ms)" ~actions:[ {|REPLACE("p")|}; {|RETRAIN("p")|} ] ())
      : Engine.handle list);
  Gr_kernel.Kernel.run_until kernel (Time_ns.ms 30);
  (* TIMER(0, 10ms, 15ms): fires at 0 and 10ms. *)
  check_int "replaced twice" 2 !replaced;
  (* Retrain is async: runs retrain_delay (50ms) after the firing. *)
  check_int "retrain not yet" 0 !retrained;
  Gr_kernel.Kernel.run_until kernel (Time_ns.ms 100);
  (* The second RETRAIN (at 10ms) is rate limited away. *)
  check_int "retrained once after delay" 1 !retrained

let test_engine_retrain_rate_limited () =
  let config =
    { Engine.default_config with retrain_delay = Time_ns.ms 1; retrain_min_interval = Time_ns.sec 1 }
  in
  let kernel, d = make_deployment ~config () in
  let retrained = ref 0 in
  Gr_kernel.Kernel.register_policy kernel ~name:"p"
    ~replace:(fun () -> ())
    ~restore:(fun () -> ())
    ~retrain:(fun () -> incr retrained)
    ();
  Guardrails.Deployment.save d "healthy" 0.;
  let handles =
    Guardrails.Deployment.install_source_exn d (simple_rail ~actions:[ {|RETRAIN("p")|} ] ())
  in
  Gr_kernel.Kernel.run_until kernel (Time_ns.ms 500);
  let stats = Engine.Stats.get (Guardrails.Deployment.engine d) (List.hd handles) in
  check_int "one retrain despite ~50 violations" 1 !retrained;
  check_bool "suppressions counted" true (stats.retrains_suppressed > 40)

let test_engine_cooldown () =
  let config = { Engine.default_config with cooldown = Time_ns.ms 100 } in
  let kernel, d = make_deployment ~config () in
  Guardrails.Deployment.save d "healthy" 0.;
  let handles = Guardrails.Deployment.install_source_exn d (simple_rail ()) in
  Gr_kernel.Kernel.run_until kernel (Time_ns.ms 205);
  let stats = Engine.Stats.get (Guardrails.Deployment.engine d) (List.hd handles) in
  check_int "21 checks" 21 stats.checks;
  check_int "21 violations" 21 stats.violations;
  (* firings at 0, 100, 200ms; the violations in between are cooled. *)
  check_int "cooldown limits firings" 3 stats.action_firings

let test_engine_deprioritize_kill_handlers () =
  let kernel, d = make_deployment () in
  let sched = Gr_kernel.Sched.create ~engine:kernel.engine ~hooks:kernel.hooks () in
  Guardrails.Deployment.wire_scheduler d sched;
  let batch = Gr_kernel.Sched.spawn sched ~name:"b" ~cls:"batch" ~demand:(Time_ns.sec 10) () in
  Guardrails.Deployment.save d "healthy" 0.;
  ignore
    (Guardrails.Deployment.install_source_exn d
       (simple_rail ~trigger:"TIMER(0, 10ms, 15ms)"
          ~actions:[ {|DEPRIORITIZE("batch", 64)|} ] ())
      : Engine.handle list);
  Gr_kernel.Kernel.run_until kernel (Time_ns.ms 20);
  check_int "weight changed via action" 64 batch.weight

let test_engine_uninstall () =
  let kernel, d = make_deployment () in
  Guardrails.Deployment.save d "healthy" 0.;
  let handles = Guardrails.Deployment.install_source_exn d (simple_rail ()) in
  let h = List.hd handles in
  Gr_kernel.Kernel.run_until kernel (Time_ns.ms 25);
  Engine.uninstall (Guardrails.Deployment.engine d) h;
  let before = (Engine.Stats.get (Guardrails.Deployment.engine d) h).checks in
  Gr_kernel.Kernel.run_until kernel (Time_ns.ms 100);
  check_int "no checks after uninstall" before
    (Engine.Stats.get (Guardrails.Deployment.engine d) h).checks

(* ---------- per-monitor accounts ---------- *)

module Metrics = Gr_trace.Metrics

let metrics_row d name =
  match
    List.find_opt
      (fun (r : Metrics.monitor) -> String.equal r.name name)
      (Metrics.monitors (Guardrails.Deployment.metrics d))
  with
  | Some r -> r
  | None -> Alcotest.failf "no metrics row %s" name

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* A canary runs beside the version it replaces under the same name:
   [Stats.get] stays per handle, per-name telemetry reports the sum,
   and the sum survives an uninstall. *)
let test_same_name_installs () =
  let kernel, d = make_deployment () in
  let engine = Guardrails.Deployment.engine d in
  Guardrails.Deployment.save d "healthy" 0.;
  let src = simple_rail ~name:"canary" () in
  let h1 = List.hd (Guardrails.Deployment.install_source_exn d src) in
  Gr_kernel.Kernel.run_until kernel (Time_ns.ms 25);
  let h2 = List.hd (Guardrails.Deployment.install_source_exn d src) in
  Gr_kernel.Kernel.run_until kernel (Time_ns.ms 55);
  let s1 = Engine.Stats.get engine h1 and s2 = Engine.Stats.get engine h2 in
  check_bool "per-handle checks" true (s1.checks > s2.checks && s2.checks > 0);
  let row = metrics_row d "canary" in
  check_int "one row per name" 1 (List.length (Metrics.monitors (Guardrails.Deployment.metrics d)));
  check_int "row checks are the sum" (s1.checks + s2.checks) row.checks;
  check_int "row violations are the sum" (s1.violations + s2.violations) row.violations;
  check_int "row fires are the sum" (s1.action_firings + s2.action_firings) row.fires;
  check_float "row cost is the sum" (s1.overhead_ns +. s2.overhead_ns) row.vm_cost_ns;
  (match Metrics.to_json (Guardrails.Deployment.metrics d) with
  | Guardrails.Json.Obj [ ("monitors", Guardrails.Json.Arr [ j ]) ] ->
    check_bool "json checks are the sum" true
      (Option.bind (Guardrails.Json.member "checks" j) Guardrails.Json.int_value
      = Some (s1.checks + s2.checks))
  | _ -> Alcotest.fail "expected one json row");
  let om = Guardrails.Trace_export.openmetrics (Guardrails.Deployment.tracer d) in
  check_bool "openmetrics checks are the sum" true
    (contains
       ~needle:(Printf.sprintf {|guardrail_checks_total{monitor="canary"} %d|} (s1.checks + s2.checks))
       om);
  (* Totals survive the uninstall of the old version. *)
  Guardrails.Deployment.uninstall d h1;
  check_int "totals survive uninstall" row.checks (metrics_row d "canary").checks;
  check_int "live accounts" 1 (Metrics.live_accounts (Guardrails.Deployment.metrics d));
  Gr_kernel.Kernel.run_until kernel (Time_ns.ms 95);
  let s1' = Engine.Stats.get engine h1 and s2' = Engine.Stats.get engine h2 in
  check_int "uninstalled handle keeps its account" s1.checks s1'.checks;
  check_bool "survivor kept checking" true (s2'.checks > s2.checks);
  check_int "row adds the survivor's checks" (s1'.checks + s2'.checks)
    (metrics_row d "canary").checks;
  check_int "installed totals count only the survivor" s2'.checks (Engine.Stats.total_checks engine)

(* A serving engine reinstalls the same name on every push/rollback
   cycle: the registry must stay O(names), not O(installs). *)
let test_account_churn () =
  let _, d = make_deployment () in
  let engine = Guardrails.Deployment.engine d in
  Guardrails.Deployment.save d "healthy" 1.;
  let monitor =
    match Compile.source (simple_rail ~name:"churn" ()) with
    | Ok [ m ] -> m
    | _ -> Alcotest.fail "expected one monitor"
  in
  let install () =
    match Engine.install engine monitor with
    | Ok h -> h
    | Error e -> Alcotest.failf "install: %s" (String.concat "; " e)
  in
  let resident = install () in
  for _ = 1 to 1000 do
    let h = install () in
    ignore (Engine.check_now engine h : bool);
    Engine.uninstall engine h
  done;
  let metrics = Engine.metrics engine in
  check_int "live accounts bounded by installed monitors" (Engine.installed_count engine)
    (Metrics.live_accounts metrics);
  check_int "one row" 1 (List.length (Metrics.monitors metrics));
  check_int "every check counted" 1000 (metrics_row d "churn").checks;
  check_int "resident account untouched" 0 (Engine.Stats.get engine resident).checks

let test_engine_cascade_bounded () =
  (* Two ON_CHANGE monitors that keep writing each other's keys: the
     cascade-depth bound must stop the recursion. *)
  let src =
    {|
guardrail ping {
  trigger: { ON_CHANGE(pong_key) }
  rule: { LOAD(pong_key) < 0 }
  action: { SAVE(ping_key, LOAD(ping_key) + 1) }
}
guardrail pong {
  trigger: { ON_CHANGE(ping_key) }
  rule: { LOAD(ping_key) < 0 }
  action: { SAVE(pong_key, LOAD(pong_key) + 1) }
}
|}
  in
  let _, d = make_deployment () in
  let handles = Guardrails.Deployment.install_source_exn d src in
  (* Detected statically, too: each monitor also reads the key it
     writes (inside the SAVE value program), so there are two
     self-loops plus the ping<->pong cycle. *)
  check_int "feedback cycles reported" 3 (List.length (Guardrails.Deployment.feedback_cycles d));
  Guardrails.Deployment.save d "ping_key" 1.;
  let stats h = Engine.Stats.get (Guardrails.Deployment.engine d) h in
  let total_drops =
    List.fold_left (fun acc h -> acc + (stats h).cascade_drops) 0 handles
  in
  check_bool "cascade stopped by depth bound" true (total_drops > 0)

let test_engine_oscillation_detector () =
  let config =
    { Engine.default_config with oscillation_window = Time_ns.sec 10; oscillation_flips = 4 }
  in
  let kernel, d = make_deployment ~config () in
  Guardrails.Deployment.save d "healthy" 1.;
  ignore (Guardrails.Deployment.install_source_exn d (simple_rail ()) : Engine.handle list);
  (* Flip health every 15ms so the monitor keeps changing state. *)
  ignore
    (Gr_sim.Engine.every kernel.engine ~interval:(Time_ns.ms 15) (fun _ ->
         let current = Guardrails.Store.load (Guardrails.Deployment.store d) "healthy" in
         Guardrails.Deployment.save d "healthy" (1. -. current))
      : Gr_sim.Engine.handle);
  Gr_kernel.Kernel.run_until kernel (Time_ns.ms 500);
  Alcotest.(check (list string)) "oscillation flagged" [ "g" ]
    (Engine.oscillating_monitors (Guardrails.Deployment.engine d))

let test_engine_multiple_triggers_one_monitor () =
  let kernel, d = make_deployment () in
  Guardrails.Deployment.save d "healthy" 1.;
  let handles =
    Guardrails.Deployment.install_source_exn d
      (simple_rail ~trigger:{|TIMER(0, 10ms, 35ms) FUNCTION("my:hook") ON_CHANGE(watched)|} ())
  in
  let h = List.hd handles in
  Gr_kernel.Kernel.run_until kernel (Time_ns.ms 50);
  (* Timer fires at 0,10,20,30 = 4 checks. *)
  check_int "timer checks" 4 (Engine.Stats.get (Guardrails.Deployment.engine d) h).checks;
  Gr_kernel.Hooks.fire kernel.hooks "my:hook" [];
  Guardrails.Deployment.save d "watched" 1.;
  check_int "hook and store checks add up" 6
    (Engine.Stats.get (Guardrails.Deployment.engine d) h).checks

let test_engine_save_program_reads_store () =
  let kernel, d = make_deployment () in
  Guardrails.Deployment.save d "healthy" 0.;
  Guardrails.Deployment.save d "base" 20.;
  ignore
    (Guardrails.Deployment.install_source_exn d
       (simple_rail ~trigger:"TIMER(0, 10ms, 15ms)"
          ~actions:[ "SAVE(derived, LOAD(base) * 2 + 1)" ] ())
      : Engine.handle list);
  Gr_kernel.Kernel.run_until kernel (Time_ns.ms 20);
  Alcotest.(check (float 1e-9)) "computed from store" 41.
    (Guardrails.Store.load (Guardrails.Deployment.store d) "derived")

let test_engine_report_snapshot_order () =
  let kernel, d = make_deployment () in
  Guardrails.Deployment.save d "healthy" 0.;
  Guardrails.Deployment.save d "k1" 1.;
  Guardrails.Deployment.save d "k2" 2.;
  ignore
    (Guardrails.Deployment.install_source_exn d
       (simple_rail ~trigger:"TIMER(0, 10ms, 15ms)"
          ~actions:[ {|REPORT("multi", k2, k1, healthy)|} ] ())
      : Engine.handle list);
  Gr_kernel.Kernel.run_until kernel (Time_ns.ms 20);
  match Engine.violations (Guardrails.Deployment.engine d) with
  | v :: _ ->
    Alcotest.(check (list (pair string (float 0.))))
      "snapshot preserves key order" [ ("k2", 2.); ("k1", 1.); ("healthy", 0.) ]
      v.Engine.snapshot
  | [] -> Alcotest.fail "no violation recorded"

let test_engine_auto_damp () =
  let config =
    {
      Engine.default_config with
      oscillation_window = Time_ns.sec 10;
      oscillation_flips = 4;
      auto_damp = true;
    }
  in
  let kernel, d = make_deployment ~config () in
  Guardrails.Deployment.save d "healthy" 1.;
  let handles = Guardrails.Deployment.install_source_exn d (simple_rail ()) in
  ignore
    (Gr_sim.Engine.every kernel.engine ~interval:(Time_ns.ms 15) (fun _ ->
         let current = Guardrails.Store.load (Guardrails.Deployment.store d) "healthy" in
         Guardrails.Deployment.save d "healthy" (1. -. current))
      : Gr_sim.Engine.handle);
  Gr_kernel.Kernel.run_until kernel (Time_ns.sec 2);
  let stats = Engine.Stats.get (Guardrails.Deployment.engine d) (List.hd handles) in
  check_bool "cooldown grew from zero" true (stats.effective_cooldown >= Time_ns.ms 100);
  check_bool "alerts recorded" true (stats.oscillation_alerts >= 1);
  (* Damping must slow action firings well below the violation count. *)
  check_bool "firings damped" true (stats.action_firings * 2 < stats.violations)

let test_engine_check_now () =
  let _, d = make_deployment () in
  Guardrails.Deployment.save d "healthy" 1.;
  let handles = Guardrails.Deployment.install_source_exn d (simple_rail ()) in
  let h = List.hd handles in
  check_bool "healthy" true (Engine.check_now (Guardrails.Deployment.engine d) h);
  Guardrails.Deployment.save d "healthy" 0.;
  check_bool "violated" false (Engine.check_now (Guardrails.Deployment.engine d) h)

let test_engine_rejects_unverifiable () =
  let _, d = make_deployment () in
  match
    Guardrails.Deployment.install_source d
      (simple_rail ~rule:"AVG(k, 3600s) < 1" ())
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected install to fail verification"

let suite =
  [
    ( "runtime.store",
      [
        Alcotest.test_case "load default" `Quick test_store_load_default;
        Alcotest.test_case "latest value" `Quick test_store_latest_value;
        Alcotest.test_case "window expiry" `Quick test_store_window_expiry;
        Alcotest.test_case "aggregates" `Quick test_store_aggregates;
        Alcotest.test_case "empty window is 0" `Quick test_store_empty_window_zero;
        Alcotest.test_case "bounded capacity" `Quick test_store_capacity_bounded;
        Alcotest.test_case "on_save" `Quick test_store_on_save;
        QCheck_alcotest.to_alcotest store_aggregate_property;
      ] );
    ( "runtime.store.incremental",
      [
        QCheck_alcotest.to_alcotest incremental_equivalence_property;
        Alcotest.test_case "empty and single-sample edges" `Quick
          test_incremental_empty_and_single;
        Alcotest.test_case "registration replays history" `Quick
          test_incremental_registration_replays;
        Alcotest.test_case "demand refcounting" `Quick test_incremental_refcounting;
        Alcotest.test_case "amortized scan cost" `Quick test_incremental_amortized_scan_cost;
      ] );
    ( "runtime.store.ingest",
      [
        Alcotest.test_case "save allocates nothing" `Quick test_store_save_allocates_nothing;
        Alcotest.test_case "footprint follows samples" `Quick
          test_store_footprint_follows_samples;
        Alcotest.test_case "save handle routing" `Quick test_store_save_handle_routing;
      ] );
    ( "runtime.store.merge",
      [
        QCheck_alcotest.to_alcotest merge_equivalence_property;
        Alcotest.test_case "union laws" `Quick test_merge_union_laws;
        Alcotest.test_case "shard-boundary eviction" `Quick test_merge_shard_boundary_eviction;
      ] );
    ( "runtime.vm",
      [
        Alcotest.test_case "division by zero" `Quick test_vm_division_by_zero;
        Alcotest.test_case "cost accounting" `Quick test_vm_cost_accounting;
        Alcotest.test_case "static cost hoisted" `Quick test_vm_static_cost_hoisted;
      ] );
    ( "runtime.engine",
      [
        Alcotest.test_case "demand register/release on install" `Quick
          test_engine_registers_and_releases_demands;
        Alcotest.test_case "checks hit incremental path" `Quick
          test_engine_checks_hit_incremental_path;
        Alcotest.test_case "timer checks" `Quick test_engine_timer_checks;
        Alcotest.test_case "violation and report" `Quick test_engine_violation_and_report;
        Alcotest.test_case "function trigger" `Quick test_engine_function_trigger;
        Alcotest.test_case "on-change trigger" `Quick test_engine_on_change_trigger;
        Alcotest.test_case "save action + control key" `Quick
          test_engine_save_action_and_control_key;
        Alcotest.test_case "replace/restore/retrain" `Quick test_engine_replace_restore_retrain;
        Alcotest.test_case "retrain rate limit" `Quick test_engine_retrain_rate_limited;
        Alcotest.test_case "cooldown" `Quick test_engine_cooldown;
        Alcotest.test_case "deprioritize handler" `Quick test_engine_deprioritize_kill_handlers;
        Alcotest.test_case "uninstall" `Quick test_engine_uninstall;
        Alcotest.test_case "cascade bounded" `Quick test_engine_cascade_bounded;
        Alcotest.test_case "oscillation detector" `Quick test_engine_oscillation_detector;
        Alcotest.test_case "auto-damp" `Quick test_engine_auto_damp;
        Alcotest.test_case "multiple triggers, one monitor" `Quick
          test_engine_multiple_triggers_one_monitor;
        Alcotest.test_case "SAVE program reads store" `Quick test_engine_save_program_reads_store;
        Alcotest.test_case "report snapshot order" `Quick test_engine_report_snapshot_order;
        Alcotest.test_case "check_now" `Quick test_engine_check_now;
        Alcotest.test_case "rejects unverifiable" `Quick test_engine_rejects_unverifiable;
      ] );
    ( "runtime.engine.accounts",
      [
        Alcotest.test_case "same-name installs" `Quick test_same_name_installs;
        Alcotest.test_case "install/uninstall churn" `Quick test_account_churn;
      ] );
  ]
