open Gr_util
open Gr_nn

type t = {
  rng : Rng.t;
  cpus : int;
  samples : int;
  epochs : int;
  mutable scorer : Scorer.t;
  mutable affinity : float;
  mutable retrains : int;
}

(* The scorer sees one queue at a time: [relative length; is_cpu0].
   Lower score = better placement target. Training imitates the
   least-loaded expert: score = queue length, no CPU preference. *)
let fit ~rng ~samples ~epochs =
  let data =
    Array.init samples (fun _ ->
        let len = float_of_int (Rng.int rng 16) in
        let is0 = if Rng.bool rng then 1. else 0. in
        ([| len /. 16.; is0 |], [| len /. 16. |]))
  in
  Scorer.fit ~rng ~layers:[ 2; 6; 1 ] ~hidden:Mlp.Tanh ~output:Mlp.Linear ~epochs ~batch_size:16
    ~lr:0.1 data

let train ~rng ~cpus ?(samples = 800) ?(epochs = 30) () =
  let rng = Rng.fork rng in
  { rng; cpus; samples; epochs; scorer = fit ~rng ~samples ~epochs; affinity = 0.; retrains = 0 }

let scorer t = t.scorer

let[@inline] score t ~len ~cpu =
  let x = Scorer.input t.scorer in
  x.(0) <- float_of_int len /. 16.;
  x.(1) <- (if cpu = 0 then 1. else 0.);
  Scorer.score t.scorer

(* Lower is a better target; the injected affinity favours CPU 0. *)
let[@inline] placement t ~len ~cpu =
  let base = score t ~len ~cpu in
  base -. (t.affinity *. if cpu = 0 then 1. else 0.)

let place t ~queue_lens =
  let best = ref 0 and best_score = ref infinity in
  for cpu = 0 to Array.length queue_lens - 1 do
    let s = placement t ~len:queue_lens.(cpu) ~cpu in
    if s < !best_score then begin
      best := cpu;
      best_score := s
    end
  done;
  !best

let balancer t =
  {
    Gr_kernel.Sched.balancer_name = "learned-balancer";
    place = (fun ~queue_lens -> place t ~queue_lens);
  }

let inject_affinity t ~strength = t.affinity <- strength

let retrain t =
  t.retrains <- t.retrains + 1;
  t.affinity <- 0.;
  t.scorer <- fit ~rng:t.rng ~samples:t.samples ~epochs:t.epochs

let retrain_count t = t.retrains
