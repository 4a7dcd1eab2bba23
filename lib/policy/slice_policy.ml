open Gr_util
open Gr_nn

type t = {
  rng : Rng.t;
  samples : int;
  epochs : int;
  mutable scorer : Scorer.t;
  mutable retrains : int;
  mutable sees_runqueue : bool;
}

let cfs_slice_ms ~nr_runnable = Float.max 1. (24. /. float_of_int (max 1 nr_runnable))

(* Imitation dataset. The crucial (mis)design: the feature vector is
   [nr_runnable or 1; weight; received], and an un-retrained model was
   fitted with [sees_runqueue = false] — it never observed the
   runqueue length, because during data collection the queue was
   always short and the developer dropped the "uninformative" column.
   The model therefore learns the *average* slice over the training
   mix and cannot scale slices down under load. *)
let dataset ~rng ~max_training_runnable ~samples ~sees_runqueue =
  Array.init samples (fun _ ->
      let nr = 1 + Rng.int rng max_training_runnable in
      let weight = float_of_int (256 + Rng.int rng 2048) in
      let received = Rng.float rng 100. in
      let nr_feature = if sees_runqueue then float_of_int nr /. 8. else 1. in
      ( [| nr_feature; weight /. 1024.; received /. 100. |],
        [| cfs_slice_ms ~nr_runnable:nr /. 24. |] ))

let fit ~rng ~samples ~epochs ~max_training_runnable ~sees_runqueue =
  Scorer.fit ~rng ~layers:[ 3; 8; 1 ] ~hidden:Mlp.Tanh ~epochs ~batch_size:16 ~lr:0.2
    (dataset ~rng ~max_training_runnable ~samples ~sees_runqueue)

let train ~rng ?(max_training_runnable = 4) ?(samples = 800) ?(epochs = 40) () =
  let rng = Rng.fork rng in
  let scorer = fit ~rng ~samples ~epochs ~max_training_runnable ~sees_runqueue:false in
  { rng; samples; epochs; scorer; retrains = 0; sees_runqueue = false }

let scorer t = t.scorer

let[@inline] score t ~nr_runnable ~weight ~received_ms =
  let x = Scorer.input t.scorer in
  x.(0) <- (if t.sees_runqueue then float_of_int nr_runnable /. 8. else 1.);
  x.(1) <- float_of_int weight /. 1024.;
  x.(2) <- received_ms /. 100.;
  Scorer.score t.scorer

let[@inline] predicted_slice_ms t ~nr_runnable ~weight ~received_ms =
  24. *. score t ~nr_runnable ~weight ~received_ms

let policy t =
  {
    Gr_kernel.Sched.policy_name = "learned-slice";
    slice =
      (fun ~nr_runnable ~task_weight ~task_received_ms ->
        let ms =
          predicted_slice_ms t ~nr_runnable ~weight:task_weight ~received_ms:task_received_ms
        in
        let ms = if Float.is_nan ms then 0. else ms in
        int_of_float (ms *. 1e6));
  }

(* Retraining fixes the feature omission: the fresh dataset includes
   the runqueue length, and coverage extends to the given size. *)
let retrain t ~max_training_runnable =
  t.retrains <- t.retrains + 1;
  t.sees_runqueue <- true;
  t.scorer <-
    fit ~rng:t.rng ~samples:t.samples ~epochs:t.epochs ~max_training_runnable ~sees_runqueue:true

let retrain_count t = t.retrains
