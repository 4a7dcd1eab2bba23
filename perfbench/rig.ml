(* The ingest and check workloads on the paper's §5 Figure 2 rig: four
   SSDs behind a flash-RAID block layer, Poisson reads at 1500 IO/s
   until 8s, LinnOS in the block policy slot, every device aged at 2s,
   run to 9 simulated seconds.

   After the timed phase the scripted push client runs a serving
   session against the loaded deployment (barriers every 50ms, as grc
   serve --nodes 1 drives them), so admission latency is measured on
   this workload's live heap without adding control-plane work to the
   timed phase. *)

open Gr_util
module D = Guardrails.Deployment
module Engine = Gr_runtime.Engine
module Store = Gr_runtime.Feature_store
module Sim = Gr_sim.Engine
module Kernel = Gr_kernel.Kernel
module Hooks = Gr_kernel.Hooks
module Linnos = Gr_policy.Linnos

type kind = Ingest | Check

let n_devices = 4
let io_rate = 1500.
let aging_at = Time_ns.sec 2
let workload_until = Time_ns.sec 8
let run_until = Time_ns.sec 9
let ingest_keys = 300
let check_monitors = 128

(* Seed-free counts the gate checks: derive_window_avg ticks in
   (0s, 9s] at 100ms, and TIMER(0, 100ms) checks in [0s, 9s]. *)
let rate_ticks = 90
let timer_checks = 91

(* Spans a traced repetition takes from the benchmark's side. The timed
   phase steps the sim one event at a time; listeners subscribed first
   and last on blk:io_complete bracket the fan-out to every other
   listener; a wrapper around the LinnOS decision times the learned
   policy. A step outside any fan-out that read an aggregate is a TIMER
   check; every other step's remaining time is sim dispatch and the
   simulated kernel. *)
type spans = {
  mutable steps_ns : int;
  mutable check_steps_ns : int;
  mutable other_ns : int;
  mutable fan_start : int;
  mutable fan_ns : int;
  mutable fans : int;
  mutable fan_saves_at : int;
  mutable fan_saves : int;
  mutable in_fan : bool;
  mutable linnos_ns : int;
  mutable linnos_fan_ns : int;
}

type t = {
  kind : kind;
  kernel : Kernel.t;
  deployment : D.t;
  driver : Gr_workload.Io_driver.t;
  handles : Engine.handle array;
  forwarded : string array;  (** keys saved on every blk:io_complete, in order *)
  spans : spans option;
  setup_ns : int;
  train_ns : int;
  compile_ns : int;
  install_ns : int;
}

let timed_policy spans (p : Gr_kernel.Blk.policy) =
  match spans with
  | None -> p
  | Some s ->
    {
      p with
      decide =
        (fun features ->
          let t0 = Clock.now_ns () in
          let d = p.decide features in
          let dt = Clock.now_ns () - t0 in
          s.linnos_ns <- s.linnos_ns + dt;
          if s.in_fan then s.linnos_fan_ns <- s.linnos_fan_ns + dt;
          d);
    }

let on_complete kernel f =
  ignore (Hooks.subscribe kernel.Kernel.hooks "blk:io_complete" f : Hooks.subscription)

let build kind ~seed ~traced =
  let t0 = Clock.now_ns () in
  let kernel = Kernel.create ~seed in
  let spans =
    if traced then
      Some
        {
          steps_ns = 0;
          check_steps_ns = 0;
          other_ns = 0;
          fan_start = 0;
          fan_ns = 0;
          fans = 0;
          fan_saves_at = 0;
          fan_saves = 0;
          in_fan = false;
          linnos_ns = 0;
          linnos_fan_ns = 0;
        }
    else None
  in
  let devices =
    Array.init n_devices (fun i ->
        Gr_kernel.Ssd.create ~rng:kernel.rng ~profile:Gr_kernel.Ssd.young_profile ~id:i)
  in
  let blk = Gr_kernel.Blk.create ~engine:kernel.engine ~hooks:kernel.hooks ~devices () in
  let model, train_ns = Clock.time (fun () -> Linnos.train ~rng:kernel.rng ~devices ()) in
  Gr_kernel.Policy_slot.install (Gr_kernel.Blk.slot blk) ~name:"linnos"
    (timed_policy spans (Linnos.policy model));
  let deployment = D.create ~kernel () in
  let store = D.store deployment in
  Option.iter
    (fun s ->
      on_complete kernel (fun _ ->
          s.in_fan <- true;
          s.fan_saves_at <- Store.save_count store;
          s.fan_start <- Clock.now_ns ()))
    spans;
  D.forward_hook_arg deployment ~hook:"blk:io_complete" ~arg:"false_submit" ();
  D.derive_window_avg deployment ~src:"false_submit" ~dst:"false_submit_rate"
    ~window:(Time_ns.sec 2) ~every:(Time_ns.ms 100);
  D.save deployment "ml_enabled" 1.;
  D.bind_control_key deployment ~key:"ml_enabled" (fun v -> Linnos.set_enabled model (v <> 0.));
  Kernel.register_policy kernel ~name:"linnos"
    ~replace:(fun () -> Linnos.set_enabled model false)
    ~restore:(fun () -> Linnos.set_enabled model true)
    ~retrain:(fun () -> Linnos.retrain model)
    ();
  Kernel.register_policy kernel ~name:Client.policy ~replace:ignore ~restore:ignore ();
  ignore
    (Sim.schedule_at kernel.engine aging_at (fun _ ->
         Array.iter
           (fun dev -> Gr_kernel.Ssd.set_profile dev Gr_kernel.Ssd.aged_profile)
           devices)
      : Sim.handle);
  let driver =
    Gr_workload.Io_driver.start ~engine:kernel.engine ~rng:kernel.rng ~blk
      ~arrival:(Gr_workload.Arrival.poisson ~rate_per_sec:io_rate)
      ~n_devices ~zipf_s:0.5 ~until:workload_until ()
  in
  let forwarded, sources =
    match kind with
    | Ingest ->
      let keys = Array.init ingest_keys (Printf.sprintf "key_%d") in
      Array.iter
        (fun key -> D.forward_hook_arg deployment ~hook:"blk:io_complete" ~arg:"latency_us" ~key ())
        keys;
      (Array.append [| "false_submit" |] keys, Specs.ingest_monitors ~seed ~keys:ingest_keys)
    | Check ->
      D.forward_hook_arg deployment ~hook:"blk:io_complete" ~arg:"latency_us" ();
      Array.iteri
        (fun j v -> D.save deployment (Specs.feature_key j) v)
        (Specs.feature_values ~seed);
      ([| "false_submit"; "latency_us" |], Specs.check_monitors ~seed ~monitors:check_monitors)
  in
  let monitors, compile_ns =
    Clock.time (fun () -> List.concat_map Gr_compiler.Compile.source_exn sources)
  in
  let handles, install_ns =
    Clock.time (fun () -> Outcome.installed (D.install_monitors deployment monitors))
  in
  Option.iter
    (fun s ->
      on_complete kernel (fun _ ->
          let now = Clock.now_ns () in
          s.fan_ns <- s.fan_ns + (now - s.fan_start);
          s.fans <- s.fans + 1;
          s.fan_saves <- s.fan_saves + (Store.save_count store - s.fan_saves_at);
          s.in_fan <- false))
    spans;
  {
    kind;
    kernel;
    deployment;
    driver;
    handles = Array.of_list handles;
    forwarded;
    spans;
    setup_ns = Clock.now_ns () - t0;
    train_ns;
    compile_ns;
    install_ns;
  }

let aggregate_reads store = Store.agg_hit_count store + Store.agg_miss_count store

let run_timed rig =
  match rig.spans with
  | None -> Kernel.run_until rig.kernel run_until
  | Some s ->
    let sim = rig.kernel.engine and store = D.store rig.deployment in
    let rec go () =
      match Sim.next_event_time sim with
      | Some at when at <= run_until ->
        let reads0 = aggregate_reads store and fan0 = s.fan_ns in
        let outside0 = s.linnos_ns - s.linnos_fan_ns in
        let t0 = Clock.now_ns () in
        ignore (Sim.step sim : bool);
        let dt = Clock.now_ns () - t0 in
        let fan = s.fan_ns - fan0 and linnos = s.linnos_ns - s.linnos_fan_ns - outside0 in
        s.steps_ns <- s.steps_ns + dt;
        if fan = 0 && aggregate_reads store > reads0 then
          s.check_steps_ns <- s.check_steps_ns + dt - linnos
        else s.other_ns <- s.other_ns + dt - fan - linnos;
        go ()
      | Some _ | None -> ()
    in
    go ();
    Sim.run_until sim run_until

(* Self-times, all from measured spans: probes only split a span.
   Inside the fan-out, per-listener dispatch is the hooks' own time and
   the rest divides between saves and FUNCTION checks in proportion to
   their probed costs. Check time (fan-out share plus TIMER check steps)
   splits into engine and trace at their probed per-check costs; the
   remainder, reads with their lazy window expiry, is the store's. *)
let ledger s ~wall_ns ~listeners ~checks ~checks_in_fan ~reads_per_check (p : Probes.t) =
  let f = float_of_int in
  let fan = f (s.fan_ns - s.linnos_fan_ns) in
  let hooks = Float.min fan (f (s.fans * listeners) *. p.dispatch_ns) in
  let est_saves = f s.fan_saves *. p.save_ns and est_checks = f checks_in_fan *. p.check_ns in
  let saves =
    if est_saves +. est_checks > 0. then (fan -. hooks) *. est_saves /. (est_saves +. est_checks)
    else 0.
  in
  let in_checks = fan -. hooks -. saves +. f s.check_steps_ns in
  let trace = Float.min in_checks (f checks *. p.record_ns) in
  let engine =
    Float.min (in_checks -. trace)
      (f checks *. Float.max 0. (p.check_ns -. reads_per_check -. p.record_ns))
  in
  Outcome.close ~wall_ns
    [
      ("sim", f s.other_ns);
      ("hooks", hooks);
      ("store_save", saves);
      ("store_read", in_checks -. engine -. trace);
      ("engine", engine);
      ("trace", trace);
      ("linnos", f s.linnos_ns);
      ("analysis", 0.);
      ("lifecycle", 0.);
    ]

let serve rig ~seed =
  let client = Client.create ~seed (Guardrails.Lifecycle.Deployment rig.deployment) in
  let barrier_ns = ref 0 and epochs = ref [] and last = ref (Clock.now_ns ()) in
  Sim.run_chunked rig.kernel.engine ~epoch:Client.epoch ~limit:(run_until + Client.span)
    ~at_barrier:(fun ts ->
      let b = Clock.now_ns () in
      Guardrails.Lifecycle.barrier (Client.lifecycle client) ts;
      let a = Clock.now_ns () in
      barrier_ns := !barrier_ns + (a - b);
      epochs := Clock.ms (a - !last) :: !epochs;
      Client.on_barrier client;
      last := Clock.now_ns ());
  (Client.summary client, !barrier_ns, List.rev !epochs)

let probes rig ~seed =
  let store = D.store rig.deployment in
  let load_keys, agg_keys =
    match rig.kind with
    | Ingest -> (Array.sub rig.forwarded 1 ingest_keys, [| "key_0" |])
    | Check -> (Array.init Specs.n_features Specs.feature_key, [| "latency_us" |])
  in
  Probes.measure ~seed ~save_store:store ~save_keys:rig.forwarded ~load_store:store ~load_keys ~agg_store:store ~agg_keys ~engine:(D.engine rig.deployment)
    ~handles:rig.handles

let rep kind ~seed ~traced =
  let rig = build kind ~seed ~traced in
  Gc.compact ();
  let store = D.store rig.deployment and engine = D.engine rig.deployment in
  let sim = rig.kernel.engine in
  let c0 = Outcome.counts [ store ] and events0 = Sim.events_fired sim in
  let g0 = Gc.quick_stat () in
  let (), wall_ns = Clock.time (fun () -> run_timed rig) in
  let g1 = Gc.quick_stat () in
  let c = Outcome.counts_since c0 [ store ] in
  let events = Sim.events_fired sim - events0 in
  let fires = Hooks.fire_count rig.kernel.hooks "blk:io_complete" in
  let checks, firings, est_work_ns = Outcome.engine_totals engine in
  let timed_reports = List.length (Engine.violations engine) in
  let jit_monitors, reg_monitors = Outcome.tiers rig.handles in
  (* The timed phase leaves a major cycle in flight; start the push
     session from the live rig alone, as the timed phase started. *)
  Gc.compact ();
  let client, barrier_ns, epoch_ms = serve rig ~seed in
  let monitors = Array.length rig.handles in
  (* FUNCTION-triggered monitors check inside the fan-out. *)
  let checks_in_fan, fn_monitors = match kind with Check -> (checks, monitors) | Ingest -> (0, 0) in
  let checked, failures =
    Outcome.gate
      ([
         ("completions = submissions", fires, Gr_workload.Io_driver.submitted rig.driver);
         ("timed-phase action firings", firings, 0);
         ("timed-phase reports", timed_reports, 0);
       ]
      @
      match kind with
      | Ingest ->
        [
          ("saves", c.n_saves, ((ingest_keys + 1) * fires) + rate_ticks);
          ("checks", checks, ingest_keys * timer_checks);
        ]
      | Check ->
        [
          ("saves", c.n_saves, (2 * fires) + rate_ticks);
          ("checks", checks, check_monitors * fires);
          ("loads", c.n_loads, Specs.n_features * checks);
          ("aggregate hits", c.n_hits, checks + rate_ticks);
        ])
  in
  let outcome =
    {
      Outcome.setup_ns = rig.setup_ns;
      wall_ns;
      sim_ns = run_until;
      saves = c.n_saves;
      loads = c.n_loads;
      agg_hits = c.n_hits;
      agg_misses = c.n_misses;
      expired = c.n_expired;
      events;
      hook_fires = fires;
      checks;
      firings;
      est_work_ns;
      reports = List.length (Engine.violations engine);
      jit_monitors;
      reg_monitors;
      gc_minor = g1.minor_collections - g0.minor_collections;
      gc_major = g1.major_collections - g0.major_collections;
      gc_promoted = g1.promoted_words -. g0.promoted_words;
      train_ns = rig.train_ns;
      compile_ns = rig.compile_ns;
      install_ns = rig.install_ns;
      monitors;
      client;
      barrier_ns;
      epoch_ms;
      fanouts = (match rig.spans with Some s -> s.fans | None -> 0);
      fanout_ns = (match rig.spans with Some s -> s.fan_ns | None -> 0);
      ledger =
        Option.map
          (fun s p ->
            let reads =
              (float_of_int c.n_loads *. p.Probes.handle_load_ns)
              +. (float_of_int (c.n_hits + c.n_misses) *. p.agg_ns)
            in
            ledger s ~wall_ns
              ~listeners:(Array.length rig.forwarded + fn_monitors)
              ~checks ~checks_in_fan
              ~reads_per_check:(reads /. float_of_int (max 1 checks))
              p)
          rig.spans;
      checked = checked + Client.pushes;
      failures = failures @ client.failures;
    }
  in
  (outcome, fun () -> probes rig ~seed)
