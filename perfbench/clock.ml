(* Timing and the summary statistics the harness reports.

   Spans come from the monotonic nanosecond clock bechamel ships
   (clock_gettime, no allocation): Unix.gettimeofday only resolves
   microseconds, too coarse for the 20-400ns operations probed here. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let time f =
  let t0 = now_ns () in
  let r = f () in
  (r, now_ns () - t0)

let sec ns = float_of_int ns /. 1e9
let ms ns = float_of_int ns /. 1e6

(* Linear-interpolated quantile, [q] in [0, 1]; nan when empty. *)
let quantile q xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then Float.nan
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile 0.5 xs

let mean = function
  | [] -> Float.nan
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* The highest whole percentile that leaves at least ten samples
   beyond it: p90 of 100 samples, p91 of 120. *)
let tail_quantile n = if n <= 10 then 0.5 else float_of_int (100 * (n - 10) / n) /. 100.
