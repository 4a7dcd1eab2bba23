type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

(* splitmix64 finaliser (Steele et al., "Fast splittable pseudorandom
   number generators"). *)
let mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let create seed = { state = mix (Int64.of_int seed) }
let copy t = { state = t.state }

let int64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let fork t = { state = mix (int64 t) }

let split t i =
  (* Pure indexed derivation: hash the parent state with a
     golden-gamma-spaced function of [i] so distinct indices land in
     well-separated regions of the splitmix64 state space. Does not
     advance [t], so per-node seeding is independent of how many other
     streams were derived before it. *)
  let salt = mix (Int64.add (Int64.mul (Int64.of_int i) golden_gamma) 0x1F123BB5159A55E5L) in
  { state = mix (Int64.logxor t.state salt) }

let int t bound =
  assert (bound > 0);
  (* Rejection-free for our purposes: modulo bias is negligible for
     bounds far below 2^63. *)
  Int64.to_int (Int64.rem (Int64.shift_right_logical (int64 t) 1) (Int64.of_int bound))

let float t bound =
  let u = Int64.to_float (Int64.shift_right_logical (int64 t) 11) in
  bound *. (u /. 9007199254740992.0 (* 2^53 *))

let bool t = Int64.logand (int64 t) 1L = 1L

let gaussian t ~mu ~sigma =
  (* Box-Muller; guard against log 0. *)
  let rec u1 () =
    let u = float t 1.0 in
    if u > 0. then u else u1 ()
  in
  let u2 = float t 1.0 in
  mu +. (sigma *. sqrt (-2.0 *. log (u1 ())) *. cos (2.0 *. Float.pi *. u2))

let exponential t ~rate =
  assert (rate > 0.);
  let rec u () =
    let v = float t 1.0 in
    if v > 0. then v else u ()
  in
  -.log (u ()) /. rate

let lognormal t ~mu ~sigma = exp (gaussian t ~mu ~sigma)

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let choice t a =
  assert (Array.length a > 0);
  a.(int t (Array.length a))

module Zipf = struct
  type t = { cdf : float array }

  let create ~n ~s =
    assert (n > 0);
    let w = Array.init n (fun i -> 1.0 /. Float.pow (float_of_int (i + 1)) s) in
    let total = Array.fold_left ( +. ) 0.0 w in
    let acc = ref 0.0 in
    let cdf =
      Array.map
        (fun x ->
          acc := !acc +. (x /. total);
          !acc)
        w
    in
    cdf.(n - 1) <- 1.0;
    { cdf }

  let sample t rng =
    let u = float rng 1.0 in
    (* First index whose cdf >= u. *)
    let lo = ref 0 and hi = ref (Array.length t.cdf - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if t.cdf.(mid) < u then lo := mid + 1 else hi := mid
    done;
    !lo
end
