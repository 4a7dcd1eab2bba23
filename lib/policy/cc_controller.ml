open Gr_util
open Gr_nn

type t = {
  scorer : Scorer.t;
  mutable wobble : float; (* amplitude of the injected instability *)
}

(* Ground truth the model imitates: back off as RTT and loss grow. *)
let target ~rtt_ms ~loss =
  let backoff = Float.min 1.8 (Float.max 0.2 (1.6 -. (rtt_ms /. 100.) -. (6. *. loss))) in
  backoff /. 2. (* map into (0,1) for the sigmoid output *)

let train ~rng ?(samples = 800) ?(epochs = 50) () =
  let rng = Rng.fork rng in
  let data =
    Array.init samples (fun _ ->
        let rtt_ms = Rng.float rng 120. and loss = Rng.float rng 0.15 in
        ([| rtt_ms /. 120.; loss /. 0.15 |], [| target ~rtt_ms ~loss |]))
  in
  let scorer =
    Scorer.fit ~rng ~layers:[ 2; 10; 1 ] ~hidden:Mlp.Tanh ~epochs ~batch_size:16 ~lr:0.15 data
  in
  { scorer; wobble = 0. }

let scorer t = t.scorer

let[@inline] score t ~rtt_ms ~loss =
  let x = Scorer.input t.scorer in
  x.(0) <- rtt_ms /. 120.;
  x.(1) <- loss /. 0.15;
  Scorer.score t.scorer

let[@inline] rate_multiplier t ~rtt_ms ~loss =
  let rtt_n = rtt_ms /. 120. and loss_n = loss /. 0.15 in
  let base = 2. *. score t ~rtt_ms ~loss in
  (* The wobble term models an unstable/overfit policy: a
     high-frequency component whose output swings violently under
     tiny measurement noise. Zero for the trained model. *)
  let noisy = base +. (t.wobble *. sin (500. *. (rtt_n +. loss_n))) in
  Float.max 0. noisy

let sensitivity_probe t ~rng ~rtt_ms ~loss () =
  let epsilon = 0.01 in
  let base = rate_multiplier t ~rtt_ms ~loss in
  let worst = ref 0. in
  for _ = 1 to 6 do
    let d_rtt = Rng.gaussian rng ~mu:0. ~sigma:(epsilon *. 120.) in
    let d_loss = Rng.gaussian rng ~mu:0. ~sigma:(epsilon *. 0.15) in
    let perturbed = rate_multiplier t ~rtt_ms:(rtt_ms +. d_rtt) ~loss:(loss +. d_loss) in
    worst := Float.max !worst (Float.abs (perturbed -. base) /. epsilon)
  done;
  !worst

let inject_sensitivity t ~scale = t.wobble <- Float.max 0. ((scale -. 1.) *. 0.015)
let restore t = t.wobble <- 0.

let controller t =
  {
    Gr_kernel.Net.controller_name = "learned-cc";
    adjust = (fun ~rtt_ms ~loss -> rate_multiplier t ~rtt_ms ~loss);
  }
