let mean xs =
  let n = Array.length xs in
  if n = 0 then 0. else Array.fold_left ( +. ) 0. xs /. float_of_int n

let variance xs =
  let n = Array.length xs in
  if n < 2 then 0.
  else begin
    let m = mean xs in
    Array.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0. xs /. float_of_int n
  end

let stddev xs = sqrt (variance xs)

let quantile_sorted xs q =
  let n = Array.length xs in
  if n = 0 then nan
  else begin
    let rank = q *. float_of_int (n - 1) in
    let lo = Stdlib.max 0 (Stdlib.min (n - 1) (int_of_float (floor rank))) in
    let hi = Stdlib.min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    xs.(lo) +. (frac *. (xs.(hi) -. xs.(lo)))
  end

let quantile xs q =
  let copy = Array.copy xs in
  Array.sort Float.compare copy;
  quantile_sorted copy q

let quantile_envelope xs qs =
  let copy = Array.copy xs in
  Array.sort Float.compare copy;
  Array.map (quantile_sorted copy) qs

let ks_distance a b =
  let na = Array.length a and nb = Array.length b in
  if na = 0 || nb = 0 then 0.
  else begin
    let sa = Array.copy a and sb = Array.copy b in
    Array.sort Float.compare sa;
    Array.sort Float.compare sb;
    let fa = float_of_int na and fb = float_of_int nb in
    (* Advance both pointers past a shared value in one step so ties
       (and duplicates of ties) contribute a single CDF comparison. *)
    let rec skip_eq (s : float array) n i v = if i < n && s.(i) = v then skip_eq s n (i + 1) v else i in
    let rec walk i j best =
      if i >= na || j >= nb then best
      else begin
        let v = Float.min sa.(i) sb.(j) in
        let i' = skip_eq sa na i v and j' = skip_eq sb nb j v in
        let d = Float.abs ((float_of_int i' /. fa) -. (float_of_int j' /. fb)) in
        walk i' j' (Float.max best d)
      end
    in
    walk 0 0 0.
  end

let jain_index xs =
  let n = Array.length xs in
  if n = 0 then 1.
  else begin
    let s = Array.fold_left ( +. ) 0. xs in
    let s2 = Array.fold_left (fun acc x -> acc +. (x *. x)) 0. xs in
    if s2 = 0. then 1. else s *. s /. (float_of_int n *. s2)
  end

let moving_average ~window xs =
  if window <= 0 then invalid_arg "moving_average: window must be positive";
  let n = Array.length xs in
  let out = Array.make n 0. in
  let acc = ref 0. in
  for i = 0 to n - 1 do
    acc := !acc +. xs.(i);
    if i >= window then acc := !acc -. xs.(i - window);
    let len = Stdlib.min (i + 1) window in
    out.(i) <- !acc /. float_of_int len
  done;
  out
