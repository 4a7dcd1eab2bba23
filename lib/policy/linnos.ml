open Gr_util
open Gr_nn

type t = {
  rng : Rng.t;
  devices : Gr_kernel.Ssd.t array;
  samples_per_device : int;
  epochs : int;
  mutable scorer : Scorer.t;
  mutable enabled : bool;
  mutable retrains : int;
  mutable features : float array array;
}

let history = Gr_kernel.Blk.feature_history

(* Draws a labelled calibration set by probing a synthetic twin of
   each device (same profile, private RNG), so calibration never
   perturbs the live devices' random streams. The probe walks virtual
   time in small exponential steps so consecutive samples fall inside
   or outside the same GC episode, which is the temporal correlation
   the classifier must learn. Samples are stored last-drawn first. *)
let probe_dataset ~rng ~devices ~samples_per_device =
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
        let label = if lat_us > Gr_kernel.Blk.slow_threshold_us then 1. else 0. in
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

(* The scaler sees each calibration feature once, before balancing
   duplicates slow examples; [Scorer.fit] then scales the balanced
   set. *)
let fit ~rng ~devices ~samples_per_device ~epochs =
  let raw = probe_dataset ~rng ~devices ~samples_per_device in
  let features = Array.map fst raw in
  let scaler = Scaler.fit features in
  let scorer =
    Scorer.fit ~rng ~scaler ~layers:[ 2 + history; 16; 16; 1 ] ~epochs ~batch_size:32 ~lr:0.08
      (balance ~rng raw)
  in
  (features, scorer)

let train ~rng ~devices ?(samples_per_device = 1500) ?(epochs = 25) () =
  let rng = Rng.fork rng in
  let features, scorer = fit ~rng ~devices ~samples_per_device ~epochs in
  { rng; devices; samples_per_device; epochs; scorer; enabled = true; retrains = 0; features }

let copy t ~devices = { t with rng = Rng.copy t.rng; devices; scorer = Scorer.copy t.scorer }

module Templates = struct
  type nonrec t = (int64 * Gr_kernel.Ssd.profile array, t) Hashtbl.t

  let create () : t = Hashtbl.create 16

  let train templates ~rng ~devices =
    let key = (Rng.int64 (Rng.copy rng), Array.map Gr_kernel.Ssd.profile devices) in
    match Hashtbl.find_opt templates key with
    | Some template ->
      ignore (Rng.fork rng : Rng.t);
      copy template ~devices
    | None ->
      let model = train ~rng ~devices () in
      Hashtbl.add templates key (copy model ~devices);
      model
end

let[@inline] predict_score t features = Scorer.score_of t.scorer features

let predict_slow t features = predict_score t features >= 0.5

let policy t =
  let hedge = Gr_kernel.Blk.hedge_timeout in
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
  let features, scorer =
    fit ~rng:t.rng ~devices:t.devices ~samples_per_device:t.samples_per_device ~epochs:t.epochs
  in
  t.features <- features;
  t.scorer <- scorer

let retrain_count t = t.retrains

let holdout_accuracy t =
  let holdout =
    probe_dataset ~rng:t.rng ~devices:t.devices
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

let inference_flops t = Mlp.flops_per_forward (Scorer.mlp t.scorer)
let training_features t = t.features
