open Gr_util
open Gr_nn

type t = {
  rng : Rng.t;
  devices : Gr_kernel.Ssd.t array;
  history : int;
  slow_threshold_us : float;
  samples_per_device : int;
  epochs : int;
  mutable model : Mlp.t;
  mutable scaler : Scaler.t;
  mutable enabled : bool;
  mutable retrains : int;
  mutable features : float array array;
  input : float array; (* scaled features of the decision in flight *)
}

(* Draws a labelled calibration set by probing a synthetic twin of
   each device (same profile, private RNG), so calibration never
   perturbs the live devices' random streams. The probe walks virtual
   time in small exponential steps so consecutive samples fall inside
   or outside the same GC episode, which is the temporal correlation
   the classifier must learn. Samples are stored last-drawn first. *)
let probe_dataset ~rng ~devices ~history ~slow_threshold_us ~samples_per_device =
  let total = Array.length devices * samples_per_device in
  let samples = Array.make total ([||], [||]) in
  let next = ref total in
  Array.iteri
    (fun i dev ->
      let profile = Gr_kernel.Ssd.profile dev in
      let probe = Gr_kernel.Ssd.create ~rng:(Rng.fork rng) ~profile ~id:(1000 + i) in
      let window = Ring.create ~capacity:history in
      for _ = 1 to history do
        Ring.push window 0.
      done;
      let t = ref 0 in
      for _ = 1 to samples_per_device do
        t := Time_ns.add !t (Time_ns.of_float_sec (Rng.exponential rng ~rate:2500.));
        let qdepth_p = Rng.int rng 13 and qdepth_r = Rng.int rng 13 in
        let base = Gr_kernel.Ssd.draw_latency probe ~now:!t in
        let lat_us =
          Time_ns.to_float_us base +. (float_of_int qdepth_p *. profile.queue_service_us)
        in
        let feature = Array.make (2 + history) 0. in
        feature.(0) <- float_of_int qdepth_p;
        feature.(1) <- float_of_int qdepth_r;
        for j = 0 to history - 1 do
          feature.(2 + j) <- Ring.get window j
        done;
        let label = if lat_us > slow_threshold_us then 1. else 0. in
        decr next;
        samples.(!next) <- (feature, [| label |]);
        Ring.push window lat_us
      done)
    devices;
  samples

(* Slow I/Os are rare in a healthy regime; oversample them so the MSE
   objective cannot win by always answering "fast". *)
let balance ~rng data =
  let slow = Vec.create () in
  Array.iter (fun ((_, y) as s) -> if y.(0) > 0.5 then Vec.push slow s) data;
  let n_slow = Vec.length slow and n = Array.length data in
  if n_slow = 0 || n_slow * 2 >= n then data
  else begin
    let deficit = (n - (2 * n_slow)) / 2 in
    let extra = Array.init deficit (fun _ -> Vec.get slow (Rng.int rng n_slow)) in
    Array.append data extra
  end

let fit t =
  let raw = probe_dataset ~rng:t.rng ~devices:t.devices ~history:t.history
      ~slow_threshold_us:t.slow_threshold_us ~samples_per_device:t.samples_per_device
  in
  t.features <- Array.map fst raw;
  let scaler = Scaler.fit t.features in
  let data =
    balance ~rng:t.rng (Array.map (fun (x, y) -> (Scaler.transform scaler x, y)) raw)
  in
  let model =
    Mlp.create ~rng:(Rng.fork t.rng) ~layers:[ 2 + t.history; 16; 16; 1 ] ()
  in
  ignore (Mlp.train model ~rng:t.rng ~epochs:t.epochs ~batch_size:32 ~lr:0.08 data : float);
  t.model <- model;
  t.scaler <- scaler

let train ~rng ~devices ?(history = 4) ?(slow_threshold_us = 300.)
    ?(samples_per_device = 1500) ?(epochs = 25) () =
  let rng = Rng.fork rng in
  let t =
    {
      rng;
      devices;
      history;
      slow_threshold_us;
      samples_per_device;
      epochs;
      model = Mlp.create ~rng:(Rng.copy rng) ~layers:[ 2 + history; 1 ] ();
      scaler = Scaler.fit [| Array.make (2 + history) 0. |];
      enabled = true;
      retrains = 0;
      features = [||];
      input = Array.make (2 + history) 0.;
    }
  in
  fit t;
  t

let copy t ~devices =
  {
    t with
    rng = Rng.copy t.rng;
    devices;
    model = Mlp.copy t.model;
    input = Array.make (Array.length t.input) 0.;
  }

let[@inline] predict_score t features =
  Scaler.transform_into t.scaler features t.input;
  Mlp.score t.model t.input

let predict_slow t features = predict_score t features >= 0.5

let policy t =
  let hedge = Time_ns.of_float_sec (t.slow_threshold_us *. 1e-6) in
  {
    Gr_kernel.Blk.policy_name = "linnos";
    decide =
      (fun features ->
        if not t.enabled then Gr_kernel.Blk.Hedge hedge
        else if predict_slow t features then Gr_kernel.Blk.Revoke_now
        else Gr_kernel.Blk.Trust_primary);
  }

let set_enabled t v = t.enabled <- v
let enabled t = t.enabled

let retrain t =
  t.retrains <- t.retrains + 1;
  fit t

let retrain_count t = t.retrains

let holdout_accuracy t =
  let holdout =
    probe_dataset ~rng:t.rng ~devices:t.devices ~history:t.history
      ~slow_threshold_us:t.slow_threshold_us
      ~samples_per_device:(max 100 (t.samples_per_device / 4))
  in
  let correct =
    Array.fold_left
      (fun acc (x, y) ->
        let p = if predict_slow t x then 1. else 0. in
        if Float.abs (p -. y.(0)) < 0.5 then acc + 1 else acc)
      0 holdout
  in
  float_of_int correct /. float_of_int (Array.length holdout)

let inference_flops t = Mlp.flops_per_forward t.model
let training_features t = t.features
