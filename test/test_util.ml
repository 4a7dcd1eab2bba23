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

(* ---------- Deque ---------- *)

let test_deque_both_ends () =
  let d = Deque.create ~capacity:2 () in
  List.iter (Deque.push_back d) [ 1; 2; 3; 4; 5 ];
  Alcotest.(check (option int)) "front" (Some 1) (Deque.front d);
  Alcotest.(check (option int)) "back" (Some 5) (Deque.back d);
  Alcotest.(check (option int)) "pop_front" (Some 1) (Deque.pop_front d);
  Alcotest.(check (option int)) "pop_back" (Some 5) (Deque.pop_back d);
  Alcotest.(check (list int)) "remaining" [ 2; 3; 4 ] (Deque.to_list d);
  Deque.drop_front_while (fun x -> x < 4) d;
  Alcotest.(check (list int)) "front dropped" [ 4 ] (Deque.to_list d);
  Deque.drop_back_while (fun _ -> true) d;
  check_bool "drained" true (Deque.is_empty d);
  Alcotest.(check (option int)) "pop empty" None (Deque.pop_front d)

let test_deque_wraparound_growth () =
  (* Force head to wrap before growing so the copy must re-linearize. *)
  let d = Deque.create ~capacity:4 () in
  List.iter (Deque.push_back d) [ 1; 2; 3 ];
  ignore (Deque.pop_front d : int option);
  ignore (Deque.pop_front d : int option);
  List.iter (Deque.push_back d) [ 4; 5; 6; 7; 8 ];
  Alcotest.(check (list int)) "linear order preserved" [ 3; 4; 5; 6; 7; 8 ] (Deque.to_list d);
  check_int "indexed get" 5 (Deque.get d 2)

(* A monotonic min-deque driven randomly must always report the true
   minimum of the live window — the exact discipline the feature
   store's streaming MIN/MAX uses. *)
let deque_monotonic_property =
  QCheck2.Test.make ~name:"monotonic deque tracks window minimum" ~count:300
    QCheck2.Gen.(pair (int_range 1 10) (list_size (int_range 1 60) (int_range 0 1000)))
    (fun (window, xs) ->
      let d = Deque.create () in
      let ok = ref true in
      List.iteri
        (fun i x ->
          Deque.drop_back_while (fun (_, v) -> v >= x) d;
          Deque.push_back d (i, x);
          Deque.drop_front_while (fun (j, _) -> j <= i - window) d;
          let live = List.filteri (fun j _ -> j > i - window && j <= i) xs in
          let true_min = List.fold_left min (List.hd (List.rev live)) live in
          match Deque.front d with
          | Some (_, v) when v = true_min -> ()
          | _ -> ok := false)
        xs;
      !ok)

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

let test_moving_average () =
  let out = Stats.moving_average ~window:2 [| 1.; 3.; 5.; 7. |] in
  Alcotest.(check (array (float 1e-9))) "trailing MA" [| 1.; 2.; 4.; 6. |] out

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
    ( "util.deque",
      [
        Alcotest.test_case "both ends" `Quick test_deque_both_ends;
        Alcotest.test_case "wraparound growth" `Quick test_deque_wraparound_growth;
        QCheck_alcotest.to_alcotest deque_monotonic_property;
      ] );
    ( "util.stats",
      [
        Alcotest.test_case "empty/single-sample estimators" `Quick test_stats_empty_and_single;
        Alcotest.test_case "quantile interpolation" `Quick test_quantile_interpolation;
        Alcotest.test_case "ks distance" `Quick test_ks_distance;
        Alcotest.test_case "jain index" `Quick test_jain_index;
        Alcotest.test_case "moving average" `Quick test_moving_average;
        QCheck_alcotest.to_alcotest quantile_property;
        QCheck_alcotest.to_alcotest jain_property;
      ] );
  ]
