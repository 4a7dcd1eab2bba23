(* The boxed-state splitmix64 generator Gr_util.Rng replaced, kept as
   the reference its stream is property-tested against (test_util.ml).
   Only the draws the unboxed version must reproduce are here. *)

type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

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
  let salt = mix (Int64.add (Int64.mul (Int64.of_int i) golden_gamma) 0x1F123BB5159A55E5L) in
  { state = mix (Int64.logxor t.state salt) }

let int t bound =
  assert (bound > 0);
  Int64.to_int (Int64.rem (Int64.shift_right_logical (int64 t) 1) (Int64.of_int bound))

let float t bound =
  let u = Int64.to_float (Int64.shift_right_logical (int64 t) 11) in
  bound *. (u /. 9007199254740992.0)

let bool t = Int64.logand (int64 t) 1L = 1L
