module Welford = struct
  type t = {
    mutable n : int;
    mutable mean : float;
    mutable m2 : float;
    mutable min : float;
    mutable max : float;
  }

  let create () = { n = 0; mean = 0.; m2 = 0.; min = infinity; max = neg_infinity }

  let add t x =
    t.n <- t.n + 1;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. float_of_int t.n);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean));
    if x < t.min then t.min <- x;
    if x > t.max then t.max <- x

  let count t = t.n
  let mean t = if t.n = 0 then 0. else t.mean
  let variance t = if t.n < 2 then 0. else t.m2 /. float_of_int t.n
  let stddev t = sqrt (variance t)
  let min t = t.min
  let max t = t.max

  let reset t =
    t.n <- 0;
    t.mean <- 0.;
    t.m2 <- 0.;
    t.min <- infinity;
    t.max <- neg_infinity

  let merge a b =
    if a.n = 0 then { b with n = b.n }
    else if b.n = 0 then { a with n = a.n }
    else begin
      let n = a.n + b.n in
      let delta = b.mean -. a.mean in
      let nf = float_of_int n in
      let mean = a.mean +. (delta *. float_of_int b.n /. nf) in
      let m2 =
        a.m2 +. b.m2 +. (delta *. delta *. float_of_int a.n *. float_of_int b.n /. nf)
      in
      { n; mean; m2; min = Stdlib.min a.min b.min; max = Stdlib.max a.max b.max }
    end
end

module Ewma = struct
  type t = { alpha : float; mutable value : float; mutable initialized : bool }

  let create ~alpha =
    if not (alpha > 0. && alpha <= 1.) then invalid_arg "Ewma.create: alpha not in (0,1]";
    { alpha; value = 0.; initialized = false }

  let add t x =
    if t.initialized then t.value <- (t.alpha *. x) +. ((1. -. t.alpha) *. t.value)
    else begin
      t.value <- x;
      t.initialized <- true
    end

  let value t = t.value
  let initialized t = t.initialized

  let reset t =
    t.value <- 0.;
    t.initialized <- false
end

module P2 = struct
  type t = {
    q : float;
    heights : float array; (* 5 marker heights *)
    pos : float array; (* marker positions (1-based, stored as float) *)
    desired : float array;
    incr : float array;
    mutable n : int;
  }

  let create ~q =
    if not (q > 0. && q < 1.) then invalid_arg "P2.create: q not in (0,1)";
    {
      q;
      heights = Array.make 5 0.;
      pos = [| 1.; 2.; 3.; 4.; 5. |];
      desired = [| 1.; 1. +. (2. *. q); 1. +. (4. *. q); 3. +. (2. *. q); 5. |];
      incr = [| 0.; q /. 2.; q; (1. +. q) /. 2.; 1. |];
      n = 0;
    }

  (* Parabolic prediction formula from the P2 paper. *)
  let parabolic t i d =
    let h = t.heights and p = t.pos in
    h.(i)
    +. d
       /. (p.(i + 1) -. p.(i - 1))
       *. (((p.(i) -. p.(i - 1) +. d) *. (h.(i + 1) -. h.(i)) /. (p.(i + 1) -. p.(i)))
          +. ((p.(i + 1) -. p.(i) -. d) *. (h.(i) -. h.(i - 1)) /. (p.(i) -. p.(i - 1))))

  let linear t i d =
    let h = t.heights and p = t.pos in
    let j = i + int_of_float d in
    h.(i) +. (d *. (h.(j) -. h.(i)) /. (p.(j) -. p.(i)))

  let add t x =
    (* A NaN sample satisfies no cell comparison: the marker search
       below would run off the end of [heights], and during warm-up it
       would poison the sorted marker array. Skip it. *)
    if Float.is_nan x then ()
    else if t.n < 5 then begin
      t.heights.(t.n) <- x;
      t.n <- t.n + 1;
      if t.n = 5 then Array.sort Float.compare t.heights
    end
    else begin
      let h = t.heights and p = t.pos in
      (* Find cell k containing x, adjusting extreme markers. *)
      let k =
        if x < h.(0) then begin
          h.(0) <- x;
          0
        end
        else if x >= h.(4) then begin
          h.(4) <- x;
          3
        end
        else begin
          let rec find i = if x < h.(i + 1) then i else find (i + 1) in
          find 0
        end
      in
      for i = k + 1 to 4 do
        p.(i) <- p.(i) +. 1.
      done;
      for i = 0 to 4 do
        t.desired.(i) <- t.desired.(i) +. t.incr.(i)
      done;
      (* Adjust interior markers toward their desired positions. *)
      for i = 1 to 3 do
        let d = t.desired.(i) -. p.(i) in
        if
          (d >= 1. && p.(i + 1) -. p.(i) > 1.)
          || (d <= -1. && p.(i - 1) -. p.(i) < -1.)
        then begin
          let d = if d >= 0. then 1. else -1. in
          let candidate = parabolic t i d in
          let nh =
            if h.(i - 1) < candidate && candidate < h.(i + 1) then candidate
            else linear t i d
          in
          h.(i) <- nh;
          p.(i) <- p.(i) +. d
        end
      done;
      t.n <- t.n + 1
    end

  let quantile t =
    if t.n = 0 then nan
    else if t.n < 5 then begin
      let sorted = Array.sub t.heights 0 t.n in
      Array.sort Float.compare sorted;
      let rank = t.q *. float_of_int (t.n - 1) in
      let lo = int_of_float (floor rank) in
      let hi = Stdlib.min (lo + 1) (t.n - 1) in
      let frac = rank -. float_of_int lo in
      sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))
    end
    else t.heights.(2)

  let count t = t.n
end

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
