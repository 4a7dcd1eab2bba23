open Gr_util
open Gr_nn

type t = {
  model : Mlp.t;
  input : float array; (* the model input of the decision in flight *)
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
  let model = Mlp.create ~rng:(Rng.fork rng) ~layers:[ 2; 10; 1 ] ~hidden:Gr_nn.Mlp.Tanh () in
  ignore (Mlp.train model ~rng ~epochs ~batch_size:16 ~lr:0.15 data : float);
  { model; input = Array.make 2 0.; wobble = 0. }

let model t = t.model

let[@inline] score t ~rtt_ms ~loss =
  t.input.(0) <- rtt_ms /. 120.;
  t.input.(1) <- loss /. 0.15;
  Mlp.score t.model t.input

let[@inline] rate_multiplier t ~rtt_ms ~loss =
  let rtt_n = rtt_ms /. 120. and loss_n = loss /. 0.15 in
  let base = 2. *. score t ~rtt_ms ~loss in
  (* The wobble term models an unstable/overfit policy: a
     high-frequency component whose output swings violently under
     tiny measurement noise. Zero for the trained model. *)
  let noisy = base +. (t.wobble *. sin (500. *. (rtt_n +. loss_n))) in
  Float.max 0. noisy

let sensitivity_probe t ~rng ~rtt_ms ~loss ?(epsilon = 0.01) () =
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
