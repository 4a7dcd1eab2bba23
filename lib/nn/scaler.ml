open Gr_util

type t = { means : float array; stddevs : float array }

let fit rows =
  let n = Array.length rows in
  if n = 0 then invalid_arg "Scaler.fit: empty dataset";
  let d = Array.length rows.(0) in
  let columns = Array.init d (fun c -> Array.map (fun row -> row.(c)) rows) in
  { means = Array.map Stats.mean columns; stddevs = Array.map Stats.stddev columns }

let dim t = Array.length t.means

let[@inline] scale t i v = if t.stddevs.(i) > 0. then (v -. t.means.(i)) /. t.stddevs.(i) else v

let transform t x =
  if Array.length x <> dim t then invalid_arg "Scaler.transform: dimension mismatch";
  Array.mapi (scale t) x

let transform_into t x dst =
  if Array.length x <> dim t || Array.length dst <> dim t then
    invalid_arg "Scaler.transform_into: dimension mismatch";
  for i = 0 to Array.length x - 1 do
    dst.(i) <- scale t i x.(i)
  done

let mean t i = t.means.(i)
let stddev t i = t.stddevs.(i)
