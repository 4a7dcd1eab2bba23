(* Tests for gr_util: PRNG, ring buffer, statistics. *)

open Gr_util

let check_float = Alcotest.(check (float 1e-9))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---------- Rng ---------- *)

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_different_seeds () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if Rng.int64 a <> Rng.int64 b then differs := true
  done;
  check_bool "streams differ" true !differs

let test_rng_split_independent () =
  let parent = Rng.create 7 in
  let child = Rng.fork parent in
  (* Drawing from the child must not influence the parent's stream
     relative to a parent that splits but never uses the child. *)
  let parent2 = Rng.create 7 in
  let _child2 = Rng.fork parent2 in
  for _ = 1 to 5 do
    ignore (Rng.int64 child : int64)
  done;
  Alcotest.(check int64) "parent unaffected by child draws" (Rng.int64 parent2) (Rng.int64 parent)

let test_rng_int_bounds () =
  let rng = Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 17 in
    check_bool "in [0,17)" true (v >= 0 && v < 17)
  done

let test_rng_float_bounds () =
  let rng = Rng.create 4 in
  for _ = 1 to 1000 do
    let v = Rng.float rng 2.5 in
    check_bool "in [0,2.5)" true (v >= 0. && v < 2.5)
  done

let test_rng_gaussian_moments () =
  let rng = Rng.create 5 in
  let n = 20_000 in
  let xs = Array.init n (fun _ -> Rng.gaussian rng ~mu:3. ~sigma:2.) in
  check_bool "mean near 3" true (Float.abs (Stats.mean xs -. 3.) < 0.1);
  check_bool "stddev near 2" true (Float.abs (Stats.stddev xs -. 2.) < 0.1)

let test_rng_exponential_mean () =
  let rng = Rng.create 6 in
  let n = 20_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential rng ~rate:4.
  done;
  check_bool "mean near 1/4" true (Float.abs ((!sum /. float_of_int n) -. 0.25) < 0.02)

let test_zipf_skew () =
  let rng = Rng.create 8 in
  let zipf = Rng.Zipf.create ~n:100 ~s:1.2 in
  let counts = Array.make 100 0 in
  for _ = 1 to 50_000 do
    let i = Rng.Zipf.sample zipf rng in
    counts.(i) <- counts.(i) + 1
  done;
  check_bool "rank 0 most popular" true (counts.(0) > counts.(10));
  check_bool "rank 10 beats rank 90" true (counts.(10) > counts.(90));
  check_int "all mass accounted" 50_000 (Array.fold_left ( + ) 0 counts)

let test_shuffle_permutation () =
  let rng = Rng.create 9 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 Fun.id) sorted

(* ---------- Time_ns ---------- *)

let test_time_constructors () =
  check_int "us" 5_000 (Gr_util.Time_ns.us 5);
  check_int "ms" 5_000_000 (Gr_util.Time_ns.ms 5);
  check_int "sec" 5_000_000_000 (Gr_util.Time_ns.sec 5);
  check_int "of_float_sec rounds" 1_500_000_000 (Gr_util.Time_ns.of_float_sec 1.5);
  check_float "to_float_ms" 1.5 (Gr_util.Time_ns.to_float_ms 1_500_000)

let test_time_pp_units () =
  let pp t = Format.asprintf "%a" Gr_util.Time_ns.pp t in
  Alcotest.(check string) "ns" "250ns" (pp 250);
  Alcotest.(check string) "us" "20us" (pp (Gr_util.Time_ns.us 20));
  Alcotest.(check string) "ms" "1.5ms" (pp (Gr_util.Time_ns.ms 1 + Gr_util.Time_ns.us 500));
  Alcotest.(check string) "s" "2s" (pp (Gr_util.Time_ns.sec 2))

(* ---------- Ring ---------- *)

let test_ring_basic () =
  let r = Ring.create ~capacity:3 in
  check_bool "empty" true (Ring.is_empty r);
  Ring.push r 1;
  Ring.push r 2;
  check_int "length" 2 (Ring.length r);
  Alcotest.(check (list int)) "contents" [ 1; 2 ] (Ring.to_list r);
  Alcotest.(check (option int)) "oldest" (Some 1) (Ring.oldest r);
  Alcotest.(check (option int)) "newest" (Some 2) (Ring.newest r)

let test_ring_eviction () =
  let r = Ring.create ~capacity:3 in
  List.iter (Ring.push r) [ 1; 2; 3; 4; 5 ];
  check_int "capped" 3 (Ring.length r);
  Alcotest.(check (list int)) "keeps newest" [ 3; 4; 5 ] (Ring.to_list r)

let test_ring_get_out_of_range () =
  let r = Ring.create ~capacity:2 in
  Ring.push r 1;
  Alcotest.check_raises "get out of range" (Invalid_argument "Ring.get: index out of range")
    (fun () -> ignore (Ring.get r 1 : int))

let test_ring_drop_while () =
  let r = Ring.create ~capacity:8 in
  List.iter (Ring.push r) [ 1; 2; 3; 4; 5 ];
  Ring.drop_while_oldest (fun x -> x < 3) r;
  Alcotest.(check (list int)) "dropped prefix" [ 3; 4; 5 ] (Ring.to_list r);
  Ring.drop_while_oldest (fun _ -> true) r;
  check_bool "can drop all" true (Ring.is_empty r)

let test_ring_clear () =
  let r = Ring.create ~capacity:4 in
  List.iter (Ring.push r) [ 1; 2; 3 ];
  Ring.clear r;
  check_bool "cleared" true (Ring.is_empty r);
  Ring.push r 9;
  Alcotest.(check (list int)) "usable after clear" [ 9 ] (Ring.to_list r)

let test_ring_wraparound_order () =
  let r = Ring.create ~capacity:4 in
  for i = 1 to 10 do
    Ring.push r i
  done;
  Alcotest.(check (list int)) "chronological after wrap" [ 7; 8; 9; 10 ] (Ring.to_list r);
  check_int "get newest" 10 (Ring.get r 3)

let test_ring_invalid_capacity () =
  Alcotest.check_raises "zero capacity" (Invalid_argument "Ring.create: capacity must be positive")
    (fun () -> ignore (Ring.create ~capacity:0 : int Ring.t))

(* ---------- Vec ---------- *)

let test_vec_push_order_and_growth () =
  let v = Vec.create ~capacity:2 () in
  check_bool "empty" true (Vec.is_empty v);
  for i = 1 to 100 do
    Vec.push v i
  done;
  check_int "length" 100 (Vec.length v);
  check_int "first" 1 (Vec.get v 0);
  check_int "last" 100 (Vec.get v 99);
  Alcotest.(check (list int)) "insertion order" (List.init 100 (fun i -> i + 1)) (Vec.to_list v);
  check_int "fold" 5050 (Vec.fold ( + ) 0 v);
  check_bool "exists" true (Vec.exists (fun x -> x = 42) v);
  Vec.clear v;
  check_bool "cleared" true (Vec.is_empty v)

let test_vec_get_out_of_range () =
  let v = Vec.create () in
  Vec.push v 1;
  Alcotest.check_raises "get out of range" (Invalid_argument "Vec.get: index out of range")
    (fun () -> ignore (Vec.get v 1 : int))

let ring_property =
  QCheck2.Test.make ~name:"ring keeps the most recent [capacity] elements" ~count:200
    QCheck2.Gen.(pair (int_range 1 20) (list int))
    (fun (cap, xs) ->
      let r = Ring.create ~capacity:cap in
      List.iter (Ring.push r) xs;
      let n = List.length xs in
      let expected = List.filteri (fun i _ -> i >= n - cap) xs in
      Ring.to_list r = expected)

(* ---------- Stats ---------- *)

(* Empty and single-sample inputs must answer (with nan, zero or the
   sample) rather than raise: property checks run on windows that may
   not have filled yet. *)
let test_stats_empty_and_single () =
  check_bool "empty quantile is nan" true (Float.is_nan (Stats.quantile [||] 0.5));
  check_float "single-sample quantile" 42. (Stats.quantile [| 42. |] 0.9);
  check_float "empty mean" 0. (Stats.mean [||]);
  check_float "single-sample variance" 0. (Stats.variance [| 42. |]);
  check_float "single-sample stddev" 0. (Stats.stddev [| 42. |])

let test_quantile_interpolation () =
  let xs = [| 1.; 2.; 3.; 4. |] in
  check_float "q0" 1. (Stats.quantile xs 0.);
  check_float "q1" 4. (Stats.quantile xs 1.);
  check_float "median interpolates" 2.5 (Stats.quantile xs 0.5)

let test_ks_distance () =
  let a = Array.init 500 (fun i -> float_of_int i) in
  check_float "identical samples" 0. (Stats.ks_distance a a);
  let b = Array.map (fun x -> x +. 1000.) a in
  check_float "disjoint samples" 1. (Stats.ks_distance a b);
  check_float "empty sample" 0. (Stats.ks_distance a [||])

let test_jain_index () =
  check_float "perfectly fair" 1. (Stats.jain_index [| 5.; 5.; 5.; 5. |]);
  check_float "one hog of four" 0.25 (Stats.jain_index [| 1.; 0.; 0.; 0. |]);
  check_float "empty is fair" 1. (Stats.jain_index [||])

(* The unboxed generator draws the reference's stream: random seeds,
   then a mixed run of draws, forks, splits and copies over a growing
   pool of generator pairs (each op picks a pair by index). *)
type rng_op =
  | Draw64 of int
  | Draw_int of int * int
  | Draw_float of int
  | Draw_bool of int
  | Fork of int
  | Split of int * int
  | Copy of int

let rng_matches_reference =
  let open QCheck2.Gen in
  let op =
    oneof
      [
        map (fun i -> Draw64 i) nat;
        map2 (fun i b -> Draw_int (i, b)) nat (int_range 1 1_000_000);
        map (fun i -> Draw_float i) nat;
        map (fun i -> Draw_bool i) nat;
        map (fun i -> Fork i) nat;
        map2 (fun i j -> Split (i, j)) nat (int_range 0 1000);
        map (fun i -> Copy i) nat;
      ]
  in
  QCheck2.Test.make ~name:"rng streams match the boxed reference" ~count:300
    (pair int (list_size (int_range 1 200) op))
    (fun (seed, ops) ->
      let pool = Vec.create () in
      Vec.push pool (Rng.create seed, Rng_ref.create seed);
      let pick i = Vec.get pool (i mod Vec.length pool) in
      List.for_all
        (fun op ->
          match op with
          | Draw64 i ->
            let a, b = pick i in
            Rng.int64 a = Rng_ref.int64 b
          | Draw_int (i, bound) ->
            let a, b = pick i in
            Rng.int a bound = Rng_ref.int b bound
          | Draw_float i ->
            let a, b = pick i in
            Int64.bits_of_float (Rng.float a 3.5) = Int64.bits_of_float (Rng_ref.float b 3.5)
          | Draw_bool i ->
            let a, b = pick i in
            Rng.bool a = Rng_ref.bool b
          | Fork i ->
            let a, b = pick i in
            Vec.push pool (Rng.fork a, Rng_ref.fork b);
            true
          | Split (i, j) ->
            let a, b = pick i in
            Vec.push pool (Rng.split a j, Rng_ref.split b j);
            true
          | Copy i ->
            let a, b = pick i in
            Vec.push pool (Rng.copy a, Rng_ref.copy b);
            true)
        ops)

(* The draws the simulator makes per event keep their state and result
   unboxed: zero words under the release profile [make alloc-smoke]
   builds, where the draws inline into this loop. The dev profile
   compiles with -opaque, so there an [int64] or [float] draw is a call
   that boxes its result (3 and 2 words) and nothing more. *)
let test_rng_draw_allocates_nothing () =
  let r = Rng.create 3 in
  let bits = ref 0 and sum = ref 0. and floats = ref 0 in
  let w0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    bits := !bits lxor Int64.to_int (Rng.int64 r) lxor Rng.int r 1000;
    if Rng.bool r then begin
      sum := !sum +. Rng.float r 1.0;
      incr floats
    end
  done;
  let words = Gc.minor_words () -. w0 in
  check_bool "drew something" true (!sum > 0. && !bits <> 0);
  let boxes = if Build_profile.release then 0 else (3 * 10_000) + (2 * !floats) in
  Alcotest.(check (float 0.)) "minor words across 10k draws" (float_of_int boxes) words

let quantile_property =
  QCheck2.Test.make ~name:"quantile is monotone in q" ~count:200
    QCheck2.Gen.(list_size (int_range 1 50) (float_bound_inclusive 1000.))
    (fun xs ->
      let arr = Array.of_list xs in
      Stats.quantile arr 0.25 <= Stats.quantile arr 0.75)

let jain_property =
  QCheck2.Test.make ~name:"jain index lies in (0, 1]" ~count:200
    QCheck2.Gen.(list_size (int_range 1 30) (float_bound_inclusive 100.))
    (fun xs ->
      let j = Stats.jain_index (Array.of_list xs) in
      j > 0. && j <= 1. +. 1e-9)

let suite =
  [
    ( "util.rng",
      [
        Alcotest.test_case "determinism" `Quick test_rng_determinism;
        Alcotest.test_case "different seeds differ" `Quick test_rng_different_seeds;
        Alcotest.test_case "split independence" `Quick test_rng_split_independent;
        Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
        Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
        Alcotest.test_case "gaussian moments" `Quick test_rng_gaussian_moments;
        Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
        Alcotest.test_case "zipf skew" `Quick test_zipf_skew;
        Alcotest.test_case "shuffle is a permutation" `Quick test_shuffle_permutation;
        Alcotest.test_case "rng draw allocates nothing" `Quick test_rng_draw_allocates_nothing;
        QCheck_alcotest.to_alcotest rng_matches_reference;
      ] );
    ( "util.time",
      [
        Alcotest.test_case "constructors" `Quick test_time_constructors;
        Alcotest.test_case "adaptive pretty-printing" `Quick test_time_pp_units;
      ] );
    ( "util.ring",
      [
        Alcotest.test_case "basic push/read" `Quick test_ring_basic;
        Alcotest.test_case "eviction at capacity" `Quick test_ring_eviction;
        Alcotest.test_case "out-of-range get" `Quick test_ring_get_out_of_range;
        Alcotest.test_case "drop_while_oldest" `Quick test_ring_drop_while;
        Alcotest.test_case "clear" `Quick test_ring_clear;
        Alcotest.test_case "wraparound order" `Quick test_ring_wraparound_order;
        Alcotest.test_case "invalid capacity" `Quick test_ring_invalid_capacity;
        QCheck_alcotest.to_alcotest ring_property;
      ] );
    ( "util.vec",
      [
        Alcotest.test_case "push order and growth" `Quick test_vec_push_order_and_growth;
        Alcotest.test_case "out-of-range get" `Quick test_vec_get_out_of_range;
      ] );
    ( "util.stats",
      [
        Alcotest.test_case "empty/single-sample estimators" `Quick test_stats_empty_and_single;
        Alcotest.test_case "quantile interpolation" `Quick test_quantile_interpolation;
        Alcotest.test_case "ks distance" `Quick test_ks_distance;
        Alcotest.test_case "jain index" `Quick test_jain_index;
        QCheck_alcotest.to_alcotest quantile_property;
        QCheck_alcotest.to_alcotest jain_property;
      ] );
  ]
