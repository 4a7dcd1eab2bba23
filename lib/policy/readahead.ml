open Gr_util
open Gr_nn

type t = {
  rng : Rng.t;
  samples : int;
  epochs : int;
  mutable scorer : Scorer.t;
  mutable scale : float;
  mutable retrains : int;
}

(* Synthetic training stream: sequential runs with geometric lengths
   separated by random seeks. Each example is (delta, run-so-far,
   occupancy) -> pages remaining in the run, the quantity an ideal
   prefetcher would fetch. Targets are log-compressed. *)
let dataset ~rng ~mean_run ~samples =
  let data = ref [] in
  let remaining = ref 0 and run = ref 0 in
  for _ = 1 to samples do
    if !remaining = 0 then begin
      (* A seek starts a new run. *)
      remaining := 1 + int_of_float (Rng.exponential rng ~rate:(1. /. mean_run));
      run := 0;
      let occupancy = Rng.float rng 1.0 in
      data := ([| 37.; 0.; occupancy |], [| 0. |]) :: !data
    end
    else begin
      incr run;
      decr remaining;
      let occupancy = Rng.float rng 1.0 in
      data :=
        ([| 1.; float_of_int !run; occupancy |], [| log1p (float_of_int !remaining) |]) :: !data
    end
  done;
  Array.of_list !data

let[@inline] shape_into x ~delta ~run ~occupancy =
  x.(0) <- (if delta = 1. then 1. else 0.);
  x.(1) <- log1p run;
  x.(2) <- occupancy

let shape features =
  let x = Array.make 3 0. in
  shape_into x ~delta:features.(0) ~run:features.(1) ~occupancy:features.(2);
  x

let fit ~rng ~samples ~epochs ~mean_run =
  let data = Array.map (fun (x, y) -> (shape x, y)) (dataset ~rng ~mean_run ~samples) in
  Scorer.fit ~rng ~layers:[ 3; 10; 1 ] ~hidden:Mlp.Tanh ~output:Mlp.Linear ~epochs ~batch_size:32
    ~lr:0.05 data

let train ~rng ?(mean_run = 24.) ?(samples = 4000) ?(epochs = 20) () =
  let rng = Rng.fork rng in
  { rng; samples; epochs; scorer = fit ~rng ~samples ~epochs ~mean_run; scale = 1.; retrains = 0 }

let scorer t = t.scorer

let[@inline] score t ~delta ~run ~occupancy =
  shape_into (Scorer.input t.scorer) ~delta ~run ~occupancy;
  Scorer.score t.scorer

let[@inline] predict_window t ~delta ~run ~occupancy =
  let y = score t ~delta ~run ~occupancy in
  let pages = expm1 (Float.max 0. y) in
  int_of_float (Float.round (pages *. t.scale))

let policy t =
  {
    Gr_kernel.Fs.policy_name = "learned-readahead";
    window =
      (fun features ->
        predict_window t ~delta:features.(0) ~run:features.(1) ~occupancy:features.(2));
  }

let inject_scale t scale = t.scale <- scale

let retrain t ~mean_run =
  t.retrains <- t.retrains + 1;
  t.scale <- 1.;
  t.scorer <- fit ~rng:t.rng ~samples:t.samples ~epochs:t.epochs ~mean_run

let retrain_count t = t.retrains
