open Gr_util
module Blk = Gr_kernel.Blk
module Sched = Gr_kernel.Sched
module Slot = Gr_kernel.Policy_slot
module Hooks = Gr_kernel.Hooks
module Kernel = Gr_kernel.Kernel
module Store = Gr_runtime.Feature_store
module Rt = Gr_runtime.Engine
module Sink = Gr_trace.Sink
module Tracer = Gr_trace.Tracer
module D = Guardrails.Deployment

(* Scenario templates. Each builds a full deployment around a seeded
   kernel; everything stochastic draws from kernel.rng or a split of
   it, so a (scenario, seed) pair is one reproducible universe. *)

type built = {
  b_kernel : Kernel.t;
  b_d : D.t;
  b_handles : Rt.handle list;
  b_inj : Injector.t;
  b_fallback : (bool ref * (unit -> bool)) option;
      (** REPLACE/RESTORE bookkeeping vs. the slot's actual state *)
  b_retrain_runs : int ref;
  b_anomalies : string list ref;
  b_fleet : Guardrails.Fleet.t option;
      (** fleets drive via {!Guardrails.Fleet.run_epochs} and check
          invariants at its barriers instead of stepping one engine *)
}

let blk_spec =
  {|
guardrail soak-false-submit {
  trigger: { TIMER(0, 100ms) },
  rule: { LOAD(false_submit_rate) <= 0.05 },
  action: {
    REPORT("false submit rate above bound", false_submit_rate)
    REPLACE("blk_policy")
  }
}

guardrail soak-tail-latency {
  trigger: { TIMER(0, 200ms) },
  rule: { COUNT(latency_us, 1s) == 0 || AVG(latency_us, 1s) <= 5000 },
  action: {
    REPORT("average I/O latency degraded", latency_us)
    RETRAIN("blk_policy")
  }
}
|}

let build_blk ~templates ~engine ~seed ~duration =
  let kernel = Kernel.create ~seed in
  let { Gr_policy.Blk_rig.devices; blk; _ } =
    Gr_policy.Blk_rig.create ~templates kernel ~devices:4
  in
  let d = D.create ~kernel ~tracing:true ~store_capacity:1024 ?engine () in
  D.forward_hook_arg d ~hook:"blk:io_complete" ~arg:"false_submit" ();
  D.forward_hook_arg d ~hook:"blk:io_complete" ~arg:"latency_us" ();
  D.derive_window_avg d ~src:"false_submit" ~dst:"false_submit_rate" ~window:(Time_ns.sec 1)
    ~every:(Time_ns.ms 100);
  let expected_fallback = ref (Slot.on_fallback (Blk.slot blk)) in
  let retrain_runs = ref 0 in
  Kernel.register_policy kernel ~name:"blk_policy"
    ~retrain:(fun () -> incr retrain_runs)
    ~replace:(fun () ->
      Slot.use_fallback (Blk.slot blk);
      expected_fallback := true)
    ~restore:(fun () ->
      Slot.restore (Blk.slot blk);
      expected_fallback := false)
    ();
  let handles = D.install_source_exn d blk_spec in
  ignore
    (Gr_workload.Io_driver.start ~engine:kernel.engine ~rng:kernel.rng ~blk
       ~arrival:(Gr_workload.Arrival.poisson ~rate_per_sec:1200.)
       ~n_devices:4 ~zipf_s:0.5 ~until:duration ()
      : Gr_workload.Io_driver.t);
  let inj =
    Injector.create ~kernel ~tracer:(D.tracer d) ~store:(D.store d) ~devices ~blk ~seed ()
  in
  (* Policy_chaos installs a new live policy, so the slot is no longer
     on its fallback regardless of what REPLACE did earlier. *)
  Injector.set_on_policy_install inj (fun _ -> expected_fallback := false);
  {
    b_kernel = kernel;
    b_d = d;
    b_handles = handles;
    b_inj = inj;
    b_fallback = Some (expected_fallback, fun () -> Slot.on_fallback (Blk.slot blk));
    b_retrain_runs = retrain_runs;
    b_anomalies = ref [];
    b_fleet = None;
  }

let sched_spec =
  {|
guardrail soak-starvation {
  trigger: { TIMER(0, 50ms) },
  rule: { LOAD(sched_max_wait_ms) <= 150 },
  action: {
    REPORT("task starvation", sched_max_wait_ms)
    DEPRIORITIZE("batch", 64)
  }
}

guardrail soak-fairness {
  trigger: { TIMER(0, 100ms) },
  rule: { COUNT(sched_jain, 1s) == 0 || MIN(sched_jain, 1s) >= 0.2 },
  action: {
    REPORT("unfair CPU shares", sched_jain)
    REPLACE("sched_policy")
  }
}
|}

let build_sched ~engine ~seed ~duration =
  let kernel = Kernel.create ~seed in
  let sched = Sched.create ~engine:kernel.engine ~hooks:kernel.hooks ~cpus:2 () in
  Slot.install (Sched.slot sched) ~name:"wild-slices"
    (Gr_policy.Inject.wild_slices ~rng:kernel.rng ~max_ms:120);
  let d = D.create ~kernel ~tracing:true ?engine () in
  D.wire_scheduler d sched;
  let anomalies = ref [] in
  (* Re-route DEPRIORITIZE through a handler that performs the action
     and then verifies its observable effect immediately: every live
     task of the class must carry the new weight. *)
  Rt.set_deprioritize_handler (D.engine d) (fun ~cls ~weight ->
      ignore (Sched.deprioritize_class sched ~cls ~weight : int);
      List.iter
        (fun (task : Sched.task) ->
          match task.state with
          | Sched.Runnable | Sched.Running ->
            if task.cls = cls && task.weight <> weight then
              anomalies :=
                Printf.sprintf "DEPRIORITIZE(%s, %d) left live task %d at weight %d" cls
                  weight task.tid task.weight
                :: !anomalies
          | Sched.Complete | Sched.Killed -> ())
        (Sched.tasks sched));
  let expected_fallback = ref (Slot.on_fallback (Sched.slot sched)) in
  Kernel.register_policy kernel ~name:"sched_policy"
    ~replace:(fun () ->
      Slot.use_fallback (Sched.slot sched);
      expected_fallback := true)
    ~restore:(fun () ->
      Slot.restore (Sched.slot sched);
      expected_fallback := false)
    ();
  let handles = D.install_source_exn d sched_spec in
  let spawn_rng = Rng.fork kernel.rng in
  ignore
    (Gr_sim.Engine.every kernel.engine ~stop:duration ~interval:(Time_ns.ms 4) (fun _ ->
         let cls = if Rng.int spawn_rng 3 = 0 then "latency" else "batch" in
         ignore
           (Sched.spawn sched ~name:"soak" ~cls
              ~demand:(Time_ns.us (500 + Rng.int spawn_rng 9500))
              ()
             : Sched.task))
      : Gr_sim.Engine.handle);
  let inj = Injector.create ~kernel ~tracer:(D.tracer d) ~store:(D.store d) ~seed () in
  {
    b_kernel = kernel;
    b_d = d;
    b_handles = handles;
    b_inj = inj;
    b_fallback = Some (expected_fallback, fun () -> Slot.on_fallback (Sched.slot sched));
    b_retrain_runs = ref 0;
    b_anomalies = anomalies;
    b_fleet = None;
  }

let store_spec =
  {|
guardrail soak-bounds {
  trigger: { TIMER(0, 50ms) },
  rule: { COUNT(lat, 500ms) == 0 || MIN(lat, 500ms) <= MAX(lat, 500ms) },
  action: { REPORT("window min above max", lat) }
}

guardrail soak-stats {
  trigger: { TIMER(0, 100ms) },
  rule: { STDDEV(lat, 1s) >= 0 && SUM(rate, 1s) >= 0 },
  action: { REPORT("negative second moment", lat, rate) }
}

guardrail soak-tail {
  trigger: { ON_CHANGE(err) },
  rule: { COUNT(lat, 1s) == 0 || QUANTILE(lat, 0.9, 1s) >= MIN(lat, 1s) },
  action: { REPORT("tail inversion", lat, err) }
}

guardrail soak-trend {
  trigger: { TIMER(0, 200ms) },
  rule: { ABS(DELTA(lat, 2s)) <= 1e13 && AVG(lat, 2s) <= 1e13 },
  action: { REPORT("signal blowup", lat) }
}
|}

let build_store ~engine ~seed ~duration =
  let kernel = Kernel.create ~seed in
  (* A small per-key ring keeps capacity eviction constantly active
     under the 1ms save cadence. *)
  let d = D.create ~kernel ~tracing:true ~store_capacity:256 ?engine () in
  D.forward_hook_arg d ~hook:"soak:tick" ~arg:"v" ~key:"err" ();
  let handles = D.install_source_exn d store_spec in
  let wl_rng = Rng.fork kernel.rng in
  ignore
    (Gr_sim.Engine.every kernel.engine ~stop:duration ~interval:(Time_ns.ms 1) (fun _ ->
         let store = D.store d in
         Store.save store "lat" (Rng.lognormal wl_rng ~mu:5.3 ~sigma:0.5);
         Store.save store "rate" (if Rng.bool wl_rng then 1. else 0.))
      : Gr_sim.Engine.handle);
  ignore
    (Gr_sim.Engine.every kernel.engine ~stop:duration ~interval:(Time_ns.ms 5) (fun _ ->
         Hooks.fire kernel.hooks "soak:tick" [ ("v", Rng.float wl_rng 10.) ])
      : Gr_sim.Engine.handle);
  let inj = Injector.create ~kernel ~tracer:(D.tracer d) ~store:(D.store d) ~seed () in
  {
    b_kernel = kernel;
    b_d = d;
    b_handles = handles;
    b_inj = inj;
    b_fallback = None;
    b_retrain_runs = ref 0;
    b_anomalies = ref [];
    b_fleet = None;
  }

let fleet_spec =
  {|
guardrail fleet-tail {
  trigger: { TIMER(0, 100ms) },
  rule: { COUNT(latency_us, 1s) == 0 || QUANTILE(latency_us, 0.99, 1s) <= 1e9 },
  action: {
    REPORT("fleet p99 latency degraded", latency_us)
    REPLACE("blk_policy")
  }
}

guardrail fleet-spread {
  trigger: { TIMER(0, 200ms) },
  rule: { COUNT(latency_us, 1s) == 0 || STDDEV(latency_us, 1s) >= 0 },
  action: { REPORT("fleet latency spread negative", latency_us) }
}

guardrail fleet-pressure {
  trigger: { ON_CHANGE(GLOBAL(pressure)) },
  rule: { LOAD(GLOBAL(pressure)) <= 1e9 },
  action: { REPORT("global pressure blowup") }
}
|}

(* Every node's block rig, in node order: a two-device
   {!Gr_policy.Blk_rig}, its Blk slot registered as
   "blk_policy" ([on_flip] sees true after each REPLACE, false after
   each RESTORE), the latency and false-submit forwards, and a Poisson
   I/O driver until [duration]. Answers every node's Blk slot in node
   order, and node 0's devices and Blk, which the injector targets. *)
let node_blocks ~templates fleet ~duration ~on_flip =
  let rig id =
    let node = Guardrails.Fleet.node fleet id in
    let kernel = D.kernel node in
    let { Gr_policy.Blk_rig.devices; blk; _ } =
      Gr_policy.Blk_rig.create ~templates kernel ~devices:2
    in
    Kernel.register_policy kernel ~name:"blk_policy"
      ~replace:(fun () ->
        Slot.use_fallback (Blk.slot blk);
        on_flip true)
      ~restore:(fun () ->
        Slot.restore (Blk.slot blk);
        on_flip false)
      ();
    D.forward_hook_arg node ~hook:"blk:io_complete" ~arg:"latency_us" ();
    D.forward_hook_arg node ~hook:"blk:io_complete" ~arg:"false_submit" ();
    ignore
      (Gr_workload.Io_driver.start ~engine:kernel.engine ~rng:kernel.rng ~blk
         ~arrival:(Gr_workload.Arrival.poisson ~rate_per_sec:400.)
         ~n_devices:2 ~zipf_s:0.5 ~until:duration ()
        : Gr_workload.Io_driver.t);
    (devices, blk)
  in
  let rigs = List.init (Guardrails.Fleet.node_count fleet) rig in
  let devices, blk = List.hd rigs in
  (List.map (fun (_, blk) -> Blk.slot blk) rigs, devices, blk)

(* Three nodes advancing in lock-step epochs; fleet guardrails
   aggregate the merged latency stream and act through the broadcast
   REPLACE proxy. The injector targets node 0 exclusively (see
   [node0_caps]), so surviving shards keep feeding the merged view while
   one member is dead or lying. *)
let build_fleet ~templates ~engine ~nodes ~domains ~seed ~duration =
  let fleet =
    Guardrails.Fleet.create ~nodes ~seed ~store_capacity:1024 ~tracing:true ~domains ?engine ()
  in
  (* The broadcast REPLACE proxy flips every node's slot in one action
     execution, so "all slots on fallback" tracks the fleet action
     exactly; checks only run at epoch barriers. *)
  let expected_fallback = ref false in
  let slots, devices, blk =
    node_blocks ~templates fleet ~duration ~on_flip:(fun on -> expected_fallback := on)
  in
  let control = Guardrails.Fleet.control fleet in
  let handles = Guardrails.Fleet.install_source_exn fleet fleet_spec in
  ignore
    (Gr_sim.Engine.every (Guardrails.Fleet.sim fleet) ~stop:duration
       ~interval:(Time_ns.ms 50) (fun _ ->
         (* Exact by the store's retention contract: the fleet spec's
            live demands on the key read the same 1 s window. *)
         let avg =
           Store.aggregate (D.store control) ~key:"latency_us" ~fn:Gr_dsl.Ast.Avg
             ~window_ns:(float_of_int (Time_ns.sec 1))
             ~param:0.
         in
         Guardrails.Fleet.save_global fleet "pressure"
           (if Float.is_nan avg then 0. else avg /. 1000.))
      : Gr_sim.Engine.handle);
  let node0 = Guardrails.Fleet.node fleet 0 in
  (* The injector runs inside node 0's event stream, which may execute
     on its own domain, so fault trace events go to node 0's tracer —
     writing the control tracer from there would race with the control
     engine's own events. *)
  let inj =
    Injector.create ~kernel:(D.kernel node0) ~tracer:(D.tracer node0) ~store:(D.store node0)
      ~devices ~blk ~seed ()
  in
  {
    b_kernel = D.kernel node0;
    b_d = control;
    b_handles = handles;
    b_inj = inj;
    b_fallback =
      Some (expected_fallback, fun () -> List.for_all Slot.on_fallback slots);
    b_retrain_runs = ref 0;
    b_anomalies = ref [];
    b_fleet = Some fleet;
  }

(* The serve scenario: the canaried rollout path under chaos. A fleet
   like build_fleet's (workload per node, injector on node 0 — which
   is also the canary node, so device death and GC storms land
   mid-rollout on the canary), plus a spec lifecycle pushing a
   rotation of specs every 150ms while faults fly:

     - two promotable variants of the boot guardrail (same aggregate
       shapes, different thresholds — so whenever the machine is
       Steady the store's demand set must equal the boot baseline,
       whichever version won; a refcount leaked by any push/rollback/
       promote cycle moves that count and fails the run);
     - a hot spec whose fire rate violates the rollout guardrail and
       must be rolled back;
     - a spec that must die at admission (GRL003).

   Lifecycle invariants ride the fleet's own barrier hook, registered
   after the lifecycle's so they see post-decision state: demand
   refcounts at Steady, at most one Active version, dead versions
   hold no handles, engine monitor table consistent with live
   handles, and the audit event chain parent-resolvable with
   promote/rollback counts matching the machine's. *)

let serve_boot_spec =
  {|
guardrail serve-tail {
  trigger: { TIMER(0, 100ms) },
  rule: { COUNT(latency_us, 1s) == 0 || QUANTILE(latency_us, 0.99, 1s) <= 1e9 },
  action: {
    REPORT("fleet p99 latency degraded", latency_us)
    REPLACE("blk_policy")
  }
}
|}

let serve_push_specs =
  [|
    (* Promotable: boot shapes, tighter threshold. *)
    {|
guardrail serve-tail {
  trigger: { TIMER(0, 100ms) },
  rule: { COUNT(latency_us, 1s) == 0 || QUANTILE(latency_us, 0.99, 1s) <= 5e8 },
  action: {
    REPORT("fleet p99 latency degraded", latency_us)
    REPLACE("blk_policy")
  }
}
|};
    (* Rolls back: a 10ms timer on a key nothing feeds fires ~100/s on
       the canary, far over the 5/s rollout guardrail. *)
    {|
guardrail serve-heartbeat {
  trigger: { TIMER(0, 10ms) },
  rule: { COUNT(serve_heartbeat, 1s) >= 1 },
  action: {
    REPORT("no model heartbeat", serve_heartbeat)
    REPLACE("blk_policy")
  }
}
|};
    (* Promotable: boot shapes again, threshold back up. *)
    {|
guardrail serve-tail {
  trigger: { TIMER(0, 100ms) },
  rule: { COUNT(latency_us, 1s) == 0 || QUANTILE(latency_us, 0.99, 1s) <= 2e9 },
  action: {
    REPORT("fleet p99 latency degraded", latency_us)
    REPLACE("blk_policy")
  }
}
|};
    (* Dies at admission: GRL003, divisor constantly zero. *)
    {|
guardrail serve-bad {
  trigger: { TIMER(0, 100ms) },
  rule: { LOAD(latency_us) / 0 <= 1 },
  action: { REPORT("unreachable") }
}
|};
  |]

let build_serve ~templates ~engine ~nodes ~domains ~seed ~duration =
  let fleet =
    Guardrails.Fleet.create ~nodes ~seed ~store_capacity:1024 ~tracing:true ~domains ?engine ()
  in
  let _slots, devices, blk = node_blocks ~templates fleet ~duration ~on_flip:ignore in
  let anomalies = ref [] in
  let push_anomaly msg =
    if not (List.mem msg !anomalies) then anomalies := msg :: !anomalies
  in
  let audit_events = ref [] in
  let lc =
    Guardrails.Lifecycle.create
      ~config:
        { Guardrails.Lifecycle.default_config with canary_barriers = 2 }
      ~audit:(fun e -> audit_events := e :: !audit_events)
      (Guardrails.Lifecycle.Fleet fleet)
  in
  let handles =
    match Guardrails.Lifecycle.boot lc ~who:"soak" serve_boot_spec with
    | Ok handles -> handles
    | Error e -> failwith (Format.asprintf "serve boot spec rejected: %a" D.pp_error e)
  in
  let control = Guardrails.Fleet.control fleet in
  let store = D.store control in
  let demand_baseline = Store.demand_count store in
  (* Pushes arrive as control-engine events — inside the fault storm,
     possibly while a previous rollout is still in flight (those must
     be rejected busy, never wedge the machine). *)
  let push_n = ref 0 in
  ignore
    (Gr_sim.Engine.every (Guardrails.Fleet.sim fleet) ~stop:duration
       ~interval:(Time_ns.ms 150) (fun _ ->
         let spec = serve_push_specs.(!push_n mod Array.length serve_push_specs) in
         incr push_n;
         ignore
           (Guardrails.Lifecycle.push lc ~who:(Printf.sprintf "push-%d" !push_n) spec
             : Guardrails.Lifecycle.decision))
      : Gr_sim.Engine.handle);
  (* Invariant hook: registered after the lifecycle's, so it sees the
     post-decision state of every barrier. *)
  Guardrails.Fleet.add_barrier_hook fleet (fun _ ->
      let module L = Guardrails.Lifecycle in
      (match L.phase lc with
      | L.Steady ->
        let demands = Store.demand_count store in
        if demands <> demand_baseline then
          push_anomaly
            (Printf.sprintf
               "demand refcounts drifted: %d at a Steady barrier, boot baseline %d — an \
                install/uninstall cycle leaked or double-released"
               demands demand_baseline)
      | L.Pending _ | L.Rolling _ -> ());
      let history = L.history lc in
      let active = List.filter (fun (v : L.version) -> v.L.status = L.Active) history in
      if List.length active <> 1 then
        push_anomaly
          (Printf.sprintf "%d Active version(s) in the registry (exactly 1 expected)"
             (List.length active));
      List.iter
        (fun (v : L.version) ->
          match v.L.status with
          | L.Superseded | L.Rolled_back | L.Rejected ->
            if v.L.handles <> [] then
              push_anomaly
                (Printf.sprintf "version v%d is %s but still holds %d engine handle(s)"
                   v.L.id (L.status_name v.L.status)
                   (List.length v.L.handles))
          | L.Staged | L.Canarying | L.Active -> ())
        history;
      let live =
        List.fold_left (fun acc (v : L.version) -> acc + List.length v.L.handles) 0 history
      in
      if Rt.installed_count (D.engine control) <> live then
        push_anomaly
          (Printf.sprintf
             "engine monitor table holds %d entries but the registry accounts for %d live \
              handle(s)"
             (Rt.installed_count (D.engine control))
             live);
      let audit = Gr_trace.Provenance.of_events (List.rev !audit_events) in
      (match Gr_trace.Provenance.orphans audit with
      | [] -> ()
      | orphans ->
        push_anomaly
          (Printf.sprintf "%d audit event(s) reference a missing parent span"
             (List.length orphans)));
      let count name =
        List.length
          (List.filter (fun (e : Gr_trace.Event.t) -> e.name = name) !audit_events)
      in
      if count "rollout.promote" <> L.promotions lc then
        push_anomaly "audit log promote events diverge from the machine's promotion count";
      if count "rollout.rollback" <> L.rollbacks lc then
        push_anomaly "audit log rollback events diverge from the machine's rollback count");
  let node0 = Guardrails.Fleet.node fleet 0 in
  let inj =
    Injector.create ~kernel:(D.kernel node0) ~tracer:(D.tracer node0) ~store:(D.store node0)
      ~devices ~blk ~seed ()
  in
  {
    b_kernel = D.kernel node0;
    b_d = control;
    b_handles = handles;
    b_inj = inj;
    b_fallback = None;
    b_retrain_runs = ref 0;
    b_anomalies = anomalies;
    b_fleet = Some fleet;
  }

let default_nodes = 3

(* Faults land on node 0 only: its device dies, its shard's keys get
   corrupted, its hooks raise — the invariant checks then assert that
   the fleet-merged aggregates and the survivors' guardrails stay
   consistent with the naive oracle. Node 0 is also the node canaried
   rollouts target, so in [serve] device death or a GC storm there
   lands mid-rollout on the canary. *)
let node0_caps =
  {
    Fault.n_devices = 2;
    keys = [ "latency_us"; "false_submit" ];
    hooks = [ "blk:io_complete"; "blk:io_submit" ];
    blk_policy = false;
  }

(* One row per scenario: its name, what it exposes for faulting, and
   how to build it. *)
let scenarios =
  [
    ( "blk",
      {
        Fault.n_devices = 4;
        keys = [ "false_submit"; "latency_us"; "false_submit_rate" ];
        hooks = [ "blk:io_complete"; "blk:io_submit" ];
        blk_policy = true;
      },
      fun ~templates ~engine ~nodes:_ ~domains:_ -> build_blk ~templates ~engine );
    ( "sched",
      {
        Fault.n_devices = 0;
        keys = [ "sched_max_wait_ms"; "sched_jain" ];
        hooks = [ "sched:dispatch"; "sched:task_complete" ];
        blk_policy = false;
      },
      fun ~templates:_ ~engine ~nodes:_ ~domains:_ -> build_sched ~engine );
    ( "store",
      {
        Fault.n_devices = 0;
        keys = [ "lat"; "rate"; "err" ];
        hooks = [ "soak:tick" ];
        blk_policy = false;
      },
      fun ~templates:_ ~engine ~nodes:_ ~domains:_ -> build_store ~engine );
    ("fleet", node0_caps, build_fleet);
    ("serve", node0_caps, build_serve);
  ]

let scenario_names = List.map (fun (name, _, _) -> name) scenarios

let scenario name =
  match List.find_opt (fun (n, _, _) -> n = name) scenarios with
  | Some (_, caps, build) -> (caps, build)
  | None -> invalid_arg ("Soak: unknown scenario " ^ name)

let gen_plan ~scenario:name ~seed ~duration =
  let caps = fst (scenario name) in
  let rng = Rng.create ((seed * 0x9e3779b9) lxor Hashtbl.hash name) in
  let n = 3 + Rng.int rng 5 in
  Fault.gen ~rng ~caps ~n ~horizon:duration

let build ~templates ?(nodes = default_nodes) ?(domains = 1) ?engine ~scenario:name ~seed
    ~duration () =
  (snd (scenario name)) ~templates ~engine ~nodes ~domains ~seed ~duration

(* Oracle comparison. Exact aggregates (COUNT, MIN, MAX, QUANTILE,
   DELTA) must match bit-for-bit (or be NaN on both sides); running
   sums are allowed the float error a streaming path legitimately
   accumulates, scaled by the window's magnitude [m] because injected
   1e14 corruptions make both paths ill-conditioned — e.g. the naive
   scan folds newest-first while the streaming sum admits oldest-first,
   so a window holding +1e14 and -1e14 differs by O(eps * 1e14) even
   when both are correct. STDDEV's sum-of-squares form additionally
   cancels catastrophically while an extreme value is in-window. *)
let agg_close ~fn ~m ~n a b =
  if Float.is_nan a || Float.is_nan b then Float.is_nan a && Float.is_nan b
  else if a = b then true
  else
    let diff = Float.abs (a -. b) in
    match (fn : Gr_dsl.Ast.agg) with
    | Count | Min | Max | Quantile | Delta -> false
    | Sum | Rate | Avg ->
      diff <= 1e-9 +. (1e-6 *. (Float.abs a +. Float.abs b)) +. (1e-9 *. m *. float_of_int (n + 1))
    | Stddev -> diff <= 1e-9 +. (1e-4 *. (Float.abs a +. Float.abs b)) +. (1e-7 *. m)

type run_result = {
  ok : bool;
  problems : string list;
  events : int;
  faults_injected : int;
  faults_skipped : int;
  checks : int;
  violations : int;
  trace : Gr_trace.Event.t list;
  slots : (string * bool * int) list;
}

let run ~templates ?extra_source ?nodes ?domains ?engine ~scenario ~seed ~duration ~plan () =
  let b = build ~templates ?nodes ?domains ?engine ~scenario ~seed ~duration () in
  let seen = Hashtbl.create 16 in
  let problems = ref [] in
  let push msg =
    if not (Hashtbl.mem seen msg) then begin
      Hashtbl.add seen msg ();
      problems := msg :: !problems
    end
  in
  let auto_slots = ref ([] : (string * unit Slot.t * int) list) in
  (match extra_source with
  | None -> ()
  | Some src -> (
    match D.install_source b.b_d src with
    | Ok _ -> (
      (* Register a plain unit slot for each policy the extra spec
         acts on that the scenario didn't already register, so
         model-checker counterexample schedules (grc verify ->
         grc soak --plan) replay against a real policy slot whose
         final state and transition count the caller can assert. *)
      match Guardrails.Compile.source src with
      | Error _ -> ()
      | Ok ms ->
        let registered = Slot.Registry.names b.b_kernel.registry in
        List.concat_map
          (fun (m : Guardrails.Monitor.t) ->
            List.filter_map
              (function
                | Guardrails.Monitor.Replace p
                | Guardrails.Monitor.Restore p
                | Guardrails.Monitor.Retrain p -> Some p
                | _ -> None)
              m.Guardrails.Monitor.actions)
          ms
        |> List.sort_uniq compare
        |> List.iter (fun name ->
               if not (List.mem name registered) then begin
                 let slot = Slot.create ~name ~fallback:("fallback", ()) in
                 Slot.install slot ~name:"learned" ();
                 let baseline = List.length (Slot.transitions slot) in
                 Kernel.register_policy b.b_kernel ~name
                   ~replace:(fun () -> Slot.use_fallback slot)
                   ~restore:(fun () -> Slot.restore slot)
                   ();
                 auto_slots := (name, slot, baseline) :: !auto_slots
               end))
    | Error e -> push (Format.asprintf "extra spec rejected: %a" D.pp_error e)));
  Injector.arm b.b_inj plan;
  let store = D.store b.b_d in
  let check_cheap () =
    (match b.b_fallback with
    | Some (expected, actual) ->
      if actual () <> !expected then
        push "policy slot fallback state diverged from REPLACE/RESTORE bookkeeping"
    | None -> ());
    let raised = Injector.hook_raises b.b_inj in
    let contained = Hooks.contained_exn_count b.b_kernel.hooks in
    if contained <> raised then
      push
        (Printf.sprintf
           "hook exception accounting: kernel contained %d, injector raised %d — a real \
            listener bug"
           contained raised)
  in
  let check_oracle () =
    List.iter
      (fun (key, fn, window_ns, param) ->
        let inc = Store.aggregate_result store ~key ~fn ~window_ns ~param in
        Store.set_force_naive store true;
        let naive = Store.aggregate store ~key ~fn ~window_ns ~param in
        Store.set_force_naive store false;
        let samples = Store.window_samples store ~key ~window_ns in
        let n = Array.length samples in
        let m =
          Array.fold_left
            (fun acc v -> if Float.is_finite v then Float.max acc (Float.abs v) else acc)
            0. samples
        in
        if not (agg_close ~fn ~m ~n naive inc.Store.value) then
          push
            (Printf.sprintf
               "streaming aggregate diverged from naive oracle: %s(%s, %gns) streaming=%h \
                naive=%h"
               (Gr_dsl.Ast.agg_name fn) key window_ns inc.Store.value naive))
      (Store.demand_shapes store)
  in
  let events = ref 0 in
  (try
     match b.b_fleet with
     | Some fleet ->
       (* Fleets check invariants at every epoch barrier — the only
          points where node state is quiescent and safe to read from
          here, at any domain count. Lifecycle targets use the same
          barriers as their promotion decision points, and the
          scenario's own invariant hook rides them too. *)
       Guardrails.Fleet.run_epochs fleet duration ~on_barrier:(fun _ ->
           check_cheap ();
           check_oracle ());
       events := Guardrails.Fleet.events_fired fleet
     | None ->
       let engine = b.b_kernel.engine in
       let continue = ref true in
       while !continue do
         match Gr_sim.Engine.next_event_time engine with
         | Some t when Time_ns.compare t duration <= 0 ->
           ignore (Gr_sim.Engine.step engine : bool);
           incr events;
           check_cheap ();
           if !events mod 64 = 0 then check_oracle ()
         | Some _ | None -> continue := false
       done
   with exn ->
     push (Printf.sprintf "engine raised %s — corrective machinery must never throw"
             (Printexc.to_string exn)));
  check_cheap ();
  check_oracle ();
  let tracer = D.tracer b.b_d in
  let sink_check label s =
    if Sink.emitted s <> Sink.length s + Sink.dropped s then
      push
        (Printf.sprintf "%s sink accounting broken: emitted %d <> length %d + dropped %d"
           label (Sink.emitted s) (Sink.length s) (Sink.dropped s));
    if Sink.length s > Sink.capacity s then
      push (Printf.sprintf "%s sink exceeded its capacity" label)
  in
  sink_check "trace" (Tracer.events tracer);
  sink_check "report" (Tracer.reports tracer);
  let eng = D.engine b.b_d in
  let checks, violations, retrains_requested =
    List.fold_left
      (fun (c, v, r) h ->
        let st = Rt.Stats.get eng h in
        let name = Rt.monitor_name h in
        if st.Rt.Stats.violations > st.Rt.Stats.checks then
          push (Printf.sprintf "monitor %s: more violations than checks" name);
        if st.Rt.Stats.action_firings > st.Rt.Stats.violations then
          push (Printf.sprintf "monitor %s: more action firings than violations" name);
        if st.Rt.Stats.retrains_requested + st.Rt.Stats.retrains_suppressed
           > st.Rt.Stats.action_firings then
          push
            (Printf.sprintf "monitor %s: retrain bookkeeping (%d requested + %d suppressed) \
                             exceeds %d action firings"
               name st.Rt.Stats.retrains_requested st.Rt.Stats.retrains_suppressed
               st.Rt.Stats.action_firings);
        ( c + st.Rt.Stats.checks,
          v + st.Rt.Stats.violations,
          r + st.Rt.Stats.retrains_requested ))
      (0, 0, 0) b.b_handles
  in
  if !(b.b_retrain_runs) > retrains_requested then
    push
      (Printf.sprintf "retrain bookkeeping: %d callbacks ran but only %d were requested"
         !(b.b_retrain_runs) retrains_requested);
  List.iter push !(b.b_anomalies);
  let problems = List.rev !problems in
  {
    ok = problems = [];
    problems;
    events = !events;
    faults_injected = Injector.injected b.b_inj;
    faults_skipped = Injector.skipped b.b_inj;
    checks;
    violations;
    trace = Sink.to_list (Tracer.events tracer);
    slots =
      List.rev_map
        (fun (name, slot, baseline) ->
          (name, Slot.on_fallback slot, List.length (Slot.transitions slot) - baseline))
        !auto_slots
      |> List.sort compare;
  }

let run_one ?extra_source ?nodes ?domains ?engine ~scenario ~seed ~duration ~plan () =
  run ~templates:(Gr_policy.Linnos.Templates.create ()) ?extra_source ?nodes ?domains ?engine
    ~scenario ~seed ~duration ~plan ()

(* Shrinking: greedy ddmin on single faults. Re-running the predicate
   is sound because runs are deterministic in (scenario, seed, plan). *)
let shrink ~still_fails plan =
  let rec fixpoint plan =
    let n = List.length plan in
    let rec try_drop i =
      if i >= n then plan
      else
        let candidate = List.filteri (fun j _ -> j <> i) plan in
        if still_fails candidate then fixpoint candidate else try_drop (i + 1)
    in
    if n = 0 then plan else try_drop 0
  in
  fixpoint plan

type failure = {
  scenario : string;
  seed : int;
  duration : Time_ns.t;
  nodes : int;
  domains : int;
  engine : Gr_runtime.Vm.tier option;
  spec : string option;
  plan : Fault.plan;
  shrunk : Fault.plan;
  problems : string list;
}

type report = {
  runs : int;
  passed : int;
  failures : failure list;
  total_events : int;
  total_faults : int;
}

let repro_command f =
  Printf.sprintf "grc soak --scenario %s --seed %d --duration %g%s%s%s%s --plan '%s'" f.scenario
    f.seed (Time_ns.to_float_sec f.duration)
    (if f.nodes <> default_nodes then Printf.sprintf " --nodes %d" f.nodes else "")
    (if f.domains > 1 then Printf.sprintf " --domains %d" f.domains else "")
    (match f.engine with
    | Some tier when tier <> Gr_runtime.Vm.Jit ->
      " --engine " ^ Gr_runtime.Vm.tier_to_string tier
    | _ -> "")
    (match f.spec with Some path -> " --spec " ^ Filename.quote path | None -> "")
    (Fault.plan_to_string f.shrunk)

let soak ?(log = ignore) ?extra_spec ?(nodes = default_nodes) ?(domains = 1) ?engine ~scenarios
    ~seeds ~duration () =
  let extra_source = Option.map snd extra_spec in
  let templates = Gr_policy.Linnos.Templates.create () in
  let runs = ref 0 and passed = ref 0 and total_events = ref 0 and total_faults = ref 0 in
  let failures = ref [] in
  List.iter
    (fun scenario ->
      List.iter
        (fun seed ->
          incr runs;
          let plan = gen_plan ~scenario ~seed ~duration in
          let r =
            run ~templates ?extra_source ~nodes ~domains ?engine ~scenario ~seed ~duration ~plan ()
          in
          total_events := !total_events + r.events;
          total_faults := !total_faults + r.faults_injected;
          if r.ok then begin
            incr passed;
            log
              (Printf.sprintf "PASS %-5s seed=%-3d %6d events, %d faults" scenario seed
                 r.events r.faults_injected)
          end
          else begin
            log
              (Printf.sprintf "FAIL %-5s seed=%-3d %s" scenario seed
                 (String.concat "; " r.problems));
            let still_fails p =
              not
                (run ~templates ?extra_source ~nodes ~domains ?engine ~scenario ~seed ~duration
                   ~plan:p ())
                  .ok
            in
            let shrunk = shrink ~still_fails plan in
            failures :=
              {
                scenario;
                seed;
                duration;
                nodes;
                domains;
                engine;
                spec = Option.map fst extra_spec;
                plan;
                shrunk;
                problems = r.problems;
              }
              :: !failures
          end)
        seeds)
    scenarios;
  {
    runs = !runs;
    passed = !passed;
    failures = List.rev !failures;
    total_events = !total_events;
    total_faults = !total_faults;
  }

let pp_report fmt r =
  Format.fprintf fmt "soak: %d run(s), %d passed, %d failed; %d sim events, %d faults injected@."
    r.runs r.passed
    (List.length r.failures)
    r.total_events r.total_faults;
  List.iter
    (fun f ->
      Format.fprintf fmt "FAIL %s seed=%d (%d-fault plan shrunk to %d):@." f.scenario f.seed
        (List.length f.plan) (List.length f.shrunk);
      List.iter (fun p -> Format.fprintf fmt "  - %s@." p) f.problems;
      Format.fprintf fmt "  repro: %s@." (repro_command f))
    r.failures
