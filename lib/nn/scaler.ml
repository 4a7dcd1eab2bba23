open Gr_util

type t = {
  means : float array;
  stddevs : float array;
  columns : float array array; (* training data by column, for envelopes *)
}

let fit rows =
  let n = Array.length rows in
  if n = 0 then invalid_arg "Scaler.fit: empty dataset";
  let d = Array.length rows.(0) in
  let columns = Array.init d (fun c -> Array.map (fun row -> row.(c)) rows) in
  let means = Array.map Stats.mean columns in
  let stddevs = Array.map Stats.stddev columns in
  { means; stddevs; columns }

let dim t = Array.length t.means

let transform t x =
  if Array.length x <> dim t then invalid_arg "Scaler.transform: dimension mismatch";
  Array.mapi
    (fun i v -> if t.stddevs.(i) > 0. then (v -. t.means.(i)) /. t.stddevs.(i) else v)
    x

let mean t i = t.means.(i)
let stddev t i = t.stddevs.(i)
let envelope t ~quantiles col = Stats.quantile_envelope t.columns.(col) quantiles
