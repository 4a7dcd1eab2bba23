(* Learned-policy kernel — what do a LinnOS training and a decision cost?

   Training is [Linnos.train] at its defaults on the Figure 2 rig's
   young devices (Common.n_devices of them, from a kernel seeded 7 as
   [Common.make_fig2_rig] seeds it): probing the devices, fitting the
   scaler and the 25-epoch SGD run of the 6->16->16->1 net. Each of
   [train_runs] runs builds its devices afresh outside the timed region, so
   every run trains on the same input; the figure is their median with
   min and max. A decision is [Linnos.predict_score] on every training
   feature row in turn (scaling into the scorer's buffer, then
   inference), timed per call as a median of Common.runs batches. The
   sum of those scores is printed in hex, so two builds' kernels can be
   compared bit for bit. --smoke trains once at 200 samples per device
   and 3 epochs. *)

module Linnos = Gr_policy.Linnos

let train_runs = 7

let run ~json =
  let smoke = !Common.smoke in
  let samples_per_device, epochs = if smoke then (Some 200, Some 3) else (None, None) in
  let runs = if smoke then 1 else train_runs in
  let prepare () =
    let kernel = Gr_kernel.Kernel.create ~seed:7 in
    let devices =
      Array.init Common.n_devices (fun i ->
          Gr_kernel.Ssd.create ~rng:kernel.rng ~profile:Gr_kernel.Ssd.young_profile ~id:i)
    in
    fun () -> Linnos.train ~rng:kernel.rng ~devices ?samples_per_device ?epochs ()
  in
  let model = ref None in
  let train_ms =
    Common.timing_of
      (Array.init runs (fun _ ->
           let m, ms = Common.time_once ~per:1e6 prepare in
           model := Some m;
           ms))
  in
  let model = Option.get !model in
  let features = Linnos.training_features model in
  let n = Array.length features in
  let reps = if smoke then 10 else 100 in
  let sum_scores () =
    let sum = ref 0. in
    for k = 0 to n - 1 do
      sum := !sum +. Linnos.predict_score model features.(k)
    done;
    !sum
  in
  let _, predict_ns =
    Common.measure
      ~per:(float_of_int (reps * n))
      (fun () () ->
        for _ = 1 to reps do
          ignore (sum_scores () : float)
        done)
  in
  let sum_hex = Printf.sprintf "%h" (sum_scores ()) in
  if json then
    let open Common.Json in
    Common.print_json
      (Obj
         [
           ("experiment", Str "nn");
           ("train_runs", Common.json_int runs);
           ("train_ms", Common.json_timing train_ms);
           ("features", Common.json_int n);
           ("predict_score_ns", Common.json_timing predict_ns);
           ("score_sum", Str sum_hex);
         ])
  else begin
    Common.section "Learned-policy kernel — LinnOS training and decision cost";
    Printf.printf "  Linnos.train (%s), median [min, max] of %d run(s): %s ms\n"
      (if smoke then "200 samples/device, 3 epochs" else "defaults")
      runs (Common.timing_str "%.1f" train_ms);
    Printf.printf "  predict_score over %d training features, median [min, max] of %d batches: %s ns\n"
      n Common.runs (Common.timing_str "%.1f" predict_ns);
    Printf.printf "  sum of the %d scores: %s\n" n sum_hex
  end
