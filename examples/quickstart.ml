(* Quickstart: the paper's Listing 2, end to end.

   A LinnOS-style learned I/O latency classifier drives flash-RAID
   failover. Mid-run the SSDs age into a heavier garbage-collection
   regime the model was never trained on, so its false-submit rate
   (I/Os predicted fast that serve slowly) spikes. The guardrail
   below — the paper's example verbatim — detects the spike within a
   second and flips the ml_enabled control key; the policy falls back
   to timeout-based hedging and tail latency recovers.

   Run with: dune exec examples/quickstart.exe *)

open Gr_util

let listing2 =
  {|
guardrail low-false-submit {
  trigger: {
    TIMER(start_time, 1e9) // Periodically check every 1s.
  },
  rule: {
    LOAD(false_submit_rate) <= 0.05
  },
  action: {
    REPORT("false-submit rate exceeded 5%", false_submit_rate)
    SAVE(ml_enabled, false)
  }
}
|}

let () =
  (* 1. A simulated kernel with four flash devices behind a block
        layer with RAID-style failover, whose policy slot serves a
        learned policy trained on the healthy device regime. *)
  let kernel = Guardrails.Kernel.create ~seed:42 in
  let { Gr_policy.Blk_rig.devices; blk; model } =
    Gr_policy.Blk_rig.create ~templates:(Gr_policy.Linnos.Templates.create ()) kernel
      ~devices:4
  in

  (* 2. Deploy guardrails: pump the false_submit markers published by
        the block layer into the feature store, derive the windowed
        rate, and let the model watch its ml_enabled control key.
        [~tracing:true] also records every sim dispatch, hook firing,
        rule check and action into a bounded ring buffer. *)
  let d = Guardrails.Deployment.create ~kernel ~tracing:true () in
  Guardrails.Deployment.forward_hook_arg d ~hook:"blk:io_complete" ~arg:"false_submit" ();
  Guardrails.Deployment.derive_window_avg d ~src:"false_submit" ~dst:"false_submit_rate"
    ~window:(Time_ns.sec 2) ~every:(Time_ns.ms 100);
  Guardrails.Deployment.save d "ml_enabled" 1.;
  Guardrails.Deployment.bind_control_key d ~key:"ml_enabled" (fun v ->
      Gr_policy.Linnos.set_enabled model (v <> 0.));
  let handles = Guardrails.Deployment.install_source_exn d listing2 in
  Printf.printf "installed %d guardrail monitor(s)\n" (List.length handles);

  (* 3. Drive a read workload; age the devices at t=2s. *)
  let driver =
    Gr_workload.Io_driver.start ~engine:kernel.engine ~rng:kernel.rng ~blk
      ~arrival:(Gr_workload.Arrival.poisson ~rate_per_sec:1500.)
      ~n_devices:4 ~zipf_s:0.5 ~until:(Time_ns.sec 6) ()
  in
  ignore
    (Guardrails.Sim.schedule_at kernel.engine (Time_ns.sec 2) (fun _ ->
         print_endline "t=2s: devices age (GC regime shift; model is now stale)";
         Array.iter
           (fun dev -> Guardrails.Ssd.set_profile dev Guardrails.Ssd.aged_profile)
           devices)
      : Guardrails.Sim.handle);
  Guardrails.Kernel.run_until kernel (Time_ns.sec 7);

  (* 4. Report. *)
  List.iter
    (fun v ->
      Format.printf "guardrail %s fired at %a: %s (rate=%.3f)@." v.Guardrails.Engine.monitor
        Time_ns.pp v.Guardrails.Engine.at v.Guardrails.Engine.message
        (match v.Guardrails.Engine.snapshot with (_, r) :: _ -> r | [] -> nan))
    (Guardrails.Engine.violations (Guardrails.Deployment.engine d));
  Printf.printf "model enabled at end: %b\n" (Gr_policy.Linnos.enabled model);
  let samples = Gr_workload.Io_driver.samples driver in
  let mean lo hi =
    let xs =
      List.filter_map
        (fun s ->
          if s.Gr_workload.Io_driver.at >= Time_ns.sec lo && s.Gr_workload.Io_driver.at < Time_ns.sec hi
          then Some s.Gr_workload.Io_driver.latency_us
          else None)
        samples
    in
    Stats.mean (Array.of_list xs)
  in
  Printf.printf "mean I/O latency: %.0fus (young) -> %.0fus (stale model) -> %.0fus (guardrailed)\n"
    (mean 0 2) (mean 2 3) (mean 4 6);

  (* 6. Observability: per-monitor telemetry and a Chrome trace of the
        whole run — open it at chrome://tracing or ui.perfetto.dev to
        see the TIMER checks and the firing SAVE on the sim timeline. *)
  Format.printf "%a" Guardrails.Metrics.pp (Guardrails.Deployment.metrics d);
  Guardrails.Deployment.write_chrome_trace d ~path:"quickstart_trace.json";
  print_endline "trace written to quickstart_trace.json (open at chrome://tracing)"
