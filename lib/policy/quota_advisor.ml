open Gr_util
open Gr_nn

type t = {
  capacity : int;
  scorer : Scorer.t;
  mutable drift : float;
}

(* Ground-truth advisory rule the model imitates: reserve a share of
   the fast tier that grows with the miss rate, never exceeding
   capacity. *)
let target ~capacity ~miss_rate ~occupancy =
  let share = Float.min 1. (0.2 +. (0.8 *. miss_rate) +. (0.1 *. occupancy)) in
  share *. float_of_int capacity

let train ~rng ~capacity ?(samples = 600) ?(epochs = 40) () =
  let rng = Rng.fork rng in
  let data =
    Array.init samples (fun _ ->
        let miss_rate = Rng.float rng 1.0 and occupancy = Rng.float rng 1.0 in
        ( [| miss_rate; occupancy |],
          [| target ~capacity ~miss_rate ~occupancy /. float_of_int capacity |] ))
  in
  let scorer = Scorer.fit ~rng ~layers:[ 2; 8; 1 ] ~epochs ~batch_size:16 ~lr:0.2 data in
  { capacity; scorer; drift = 1. }

let scorer t = t.scorer

let[@inline] score t ~miss_rate ~occupancy =
  let x = Scorer.input t.scorer in
  x.(0) <- miss_rate;
  x.(1) <- occupancy;
  Scorer.score t.scorer

let[@inline] propose t ~miss_rate ~occupancy =
  let share = score t ~miss_rate ~occupancy in
  int_of_float (Float.round (share *. t.drift *. float_of_int t.capacity))

let inject_drift t ~scale = t.drift <- scale
let drift t = t.drift
