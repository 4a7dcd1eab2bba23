open Gr_util

let src = Logs.Src.create "guardrails.fleet" ~doc:"Guardrail fleet deployment"

module Log = (val Logs.src_log src : Logs.LOG)

module Store = Gr_runtime.Feature_store

type stats = { mutable replaces : int; mutable restores : int; mutable retrains : int;
               mutable pushes : int }

(* A cross-node effect captured in a node phase mid-epoch and applied
   by the control deployment at the next barrier (docs/PARALLEL.md).
   [its] is the node's (skew-adjusted) clock at capture. *)
type intent_kind =
  | Global_save of { key : string; value : float }
  | Hook_fire of { hook : string; args : (string * float) list }

type intent = { its : Time_ns.t; kind : intent_kind }

type t = {
  sim : Gr_sim.Engine.t;  (* the fleet clock: the control deployment's engine *)
  control : Deployment.t;  (* fleet-level kernel/store/engine; store = global tier *)
  nodes : Deployment.t array;
  domains : int;
  epoch : Time_ns.t;
  intents : intent Vec.t array;
      (* per node: written only by that node's phase mid-epoch, drained
         only at the barrier *)
  canaries : (string, int list) Hashtbl.t;  (* policy -> node ids REPLACE targets *)
  forwarded_hooks : (string, unit) Hashtbl.t;
  proxied_policies : (string, unit) Hashtbl.t;
  stats : stats;
  barrier_hooks : (Time_ns.t -> unit) Vec.t;
      (* persistent per-epoch-boundary callbacks (the spec lifecycle's
         promotion decision point); registration order *)
}

let default_epoch = Time_ns.ms 50

let create ~nodes:n ~seed ?config ?store_capacity ?(tracing = false) ?(domains = 1)
    ?(epoch = default_epoch) ?engine () =
  if n < 1 then invalid_arg "Fleet.create: a fleet has at least one node";
  if Time_ns.compare epoch Time_ns.zero <= 0 then
    invalid_arg "Fleet.create: epoch must be positive";
  (* More domains than nodes buys nothing: one task per node per
     epoch. The domain count only picks how node phases are spread
     over cores; everything else below is the same for every K. *)
  let domains = max 1 (min domains n) in
  (* Every kernel owns its engine; node i is seeded [seed + id + 1].
     Span ids can't come from a shared counter across domains, so each
     tracer gets a disjoint arithmetic channel instead: control
     allocates ids = 0 mod (n+1), node i ids = i+1 mod (n+1), all
     reproducible with no coordination. *)
  let control =
    Deployment.create ~kernel:(Gr_kernel.Kernel.create ~seed) ?config ?store_capacity ~tracing
      ?engine ()
  in
  let stride = n + 1 in
  Gr_trace.Tracer.set_span_channel (Deployment.tracer control) ~offset:0 ~stride;
  let intents = Array.init n (fun _ -> Vec.create ()) in
  let nodes =
    Array.init n (fun id ->
        let kernel = Gr_kernel.Kernel.create ~seed:(seed + id + 1) in
        let node =
          Deployment.create ~kernel ?config ?store_capacity ~tracing ~node_id:id ?engine ()
        in
        Gr_trace.Tracer.set_span_channel (Deployment.tracer node) ~offset:(id + 1) ~stride;
        node)
  in
  Store.link (Deployment.store control) (Array.map Deployment.store nodes);
  Array.iteri
    (fun id node ->
      let kernel = Deployment.kernel node in
      (* A node's GLOBAL save would write the control store from the
         node phase mid-epoch; intercept it into the node's intent
         buffer instead, stamped with the node clock so the barrier
         can replay it at its original time. Every ON_CHANGE(GLOBAL(key))
         in the fleet, node monitors included, watches the tier's entry,
         so it only ever runs in the barrier's control phase, when the
         node phases are parked. *)
      Store.set_global_publish (Deployment.store node)
        (Some
           (fun key value ->
             Vec.push intents.(id)
               { its = Gr_kernel.Kernel.now kernel; kind = Global_save { key; value } })))
    nodes;
  {
    sim = (Deployment.kernel control).Gr_kernel.Kernel.engine;
    control;
    nodes;
    domains;
    epoch;
    intents;
    canaries = Hashtbl.create 8;
    forwarded_hooks = Hashtbl.create 8;
    proxied_policies = Hashtbl.create 8;
    stats = { replaces = 0; restores = 0; retrains = 0; pushes = 0 };
    barrier_hooks = Vec.create ();
  }

let sim t = t.sim
let control t = t.control
let store t = Deployment.store t.control
let engine t = Deployment.engine t.control
let tracer t = Deployment.tracer t.control
let nodes t = Array.copy t.nodes
let tracers t = tracer t :: Array.to_list (Array.map Deployment.tracer t.nodes)
let node_count t = Array.length t.nodes
let domains t = t.domains
let epoch t = t.epoch

let node t id =
  if id < 0 || id >= Array.length t.nodes then invalid_arg "Fleet.node: no such node";
  t.nodes.(id)

let set_canary t ~policy ids =
  List.iter
    (fun id ->
      if id < 0 || id >= Array.length t.nodes then
        invalid_arg "Fleet.set_canary: no such node")
    ids;
  Hashtbl.replace t.canaries policy ids

let clear_canary t ~policy = Hashtbl.remove t.canaries policy
let canary t ~policy = Hashtbl.find_opt t.canaries policy

let save_global t key value =
  Store.save (store t) (Gr_dsl.Ast.global_key key) value

let load_global t key = Store.load (store t) (Gr_dsl.Ast.global_key key)

(* Barrier drain: buffered intents are merged across nodes into
   (timestamp, node id, node-local order) order — node-local order is
   the node's span-allocation order, so the sort key is effectively
   (time, span, node) — and re-scheduled onto the control engine at
   their original timestamps. The control engine then runs to the
   boundary, interleaving replayed intents with its own timers in
   plain (time, seq) order, which is what makes the result independent
   of both the domain count and the pool's scheduling. *)
let drain_intents t =
  let batch = ref [] in
  Array.iteri
    (fun node vec ->
      let idx = ref 0 in
      Vec.iter
        (fun it ->
          batch := (it.its, node, !idx, it.kind) :: !batch;
          incr idx)
        vec;
      Vec.clear vec)
    t.intents;
  let batch =
    List.sort
      (fun (ta, na, ia, _) (tb, nb, ib, _) -> compare (ta, na, ia) (tb, nb, ib))
      !batch
  in
  let control_hooks = (Deployment.kernel t.control).Gr_kernel.Kernel.hooks in
  let global = Deployment.store t.control in
  List.iter
    (fun (its, node_id, _, kind) ->
      (* A skewed node clock can stamp an intent ahead of the epoch —
         it just stays queued for a later barrier. Behind the control
         clock is impossible mid-run, but clamp instead of raising so
         a pathological injector can't abort the fleet. *)
      let at = Time_ns.max its (Gr_sim.Engine.now t.sim) in
      ignore
        (Gr_sim.Engine.schedule_at t.sim at (fun _ ->
             match kind with
             | Global_save { key; value } -> Store.save global key value
             | Hook_fire { hook; args } ->
               Gr_kernel.Hooks.fire control_hooks hook
                 (("node", float_of_int node_id) :: args))
          : Gr_sim.Engine.handle))
    batch

let add_barrier_hook t hook = Vec.push t.barrier_hooks hook
let fire_barrier_hooks t boundary = Vec.iter (fun hook -> hook boundary) t.barrier_hooks

let run_epochs ?(on_barrier = fun (_ : Time_ns.t) -> ()) t limit =
  let node_engines =
    Array.map (fun node -> (Deployment.kernel node).Gr_kernel.Kernel.engine) t.nodes
  in
  (* Control events stamped exactly at the start time — typically
     TIMER(0) ticks armed at installation — run before the first node
     phase; each later boundary's control phase runs boundary-stamped
     control events after that epoch's node phase. *)
  Gr_sim.Engine.run_until t.sim (Gr_sim.Engine.now t.sim);
  (* One domain is a pool without workers: node phases run inline, in
     node order, with no locks or atomics. *)
  Gr_sim.Pool.with_pool ~domains:t.domains (fun pool ->
      Gr_sim.Engine.run_epochs ~pool ~epoch:t.epoch ~limit
        ~at_barrier:(fun boundary ->
          drain_intents t;
          Gr_sim.Engine.run_until t.sim boundary;
          (* Hooks (lifecycle decisions) run before on_barrier
             (invariant checks) so checkers observe post-decision
             state at the same boundary. *)
          fire_barrier_hooks t boundary;
          on_barrier boundary)
        node_engines)

let run_until t limit = run_epochs t limit

let replaces t = t.stats.replaces
let restores t = t.stats.restores
let retrains t = t.stats.retrains
let model_pushes t = t.stats.pushes

(* Fleet action proxies.

   A fleet monitor's REPLACE/RESTORE/RETRAIN names a policy that lives
   in the node kernels' registries, not the control kernel's. Install
   registers a proxy under the control kernel that fans out:
   - REPLACE broadcasts to every node, or only to the policy's canary
     subset when one is set;
   - RESTORE always broadcasts (healing is never canaried);
   - RETRAIN runs once, on the lowest-id node that owns the policy,
     and records a model push to every other owner — the paper's
     train-once/deploy-everywhere fleet shape, counted and traced
     only: no model moves.

   Proxies always execute on the control engine (monitor actions run
   there), so they mutate node policy state only while the node
   phases are parked at a barrier. *)

let node_controls node name =
  Gr_kernel.Policy_slot.Registry.find (Deployment.kernel node).Gr_kernel.Kernel.registry name

let fleet_event t name args =
  Gr_trace.Tracer.instant (tracer t) ~cat:"fleet" ~args name

let on_policy_nodes t name targets f =
  Array.iteri
    (fun id node ->
      let keep = match targets with None -> true | Some ids -> List.mem id ids in
      if keep then
        match node_controls node name with
        | Some controls -> f id controls
        | None ->
          Log.warn (fun m ->
              m "fleet action for policy %s: node %d has no such policy" name id))
    t.nodes

let proxy_replace t name () =
  let targets = Hashtbl.find_opt t.canaries name in
  (match targets with
  | Some ids ->
    Log.info (fun m ->
        m "fleet REPLACE %s canaried to nodes [%s]" name
          (String.concat ";" (List.map string_of_int ids)))
  | None -> ());
  on_policy_nodes t name targets (fun id controls ->
      t.stats.replaces <- t.stats.replaces + 1;
      fleet_event t "fleet.replace"
        [ ("policy", Gr_trace.Event.Str name); ("target", Int id) ];
      controls.Gr_kernel.Policy_slot.Registry.replace ())

let proxy_restore t name () =
  on_policy_nodes t name None (fun id controls ->
      t.stats.restores <- t.stats.restores + 1;
      fleet_event t "fleet.restore"
        [ ("policy", Gr_trace.Event.Str name); ("target", Int id) ];
      controls.Gr_kernel.Policy_slot.Registry.restore ())

let proxy_retrain t name () =
  let owners =
    List.filter_map
      (fun id ->
        Option.map (fun c -> (id, c)) (node_controls t.nodes.(id) name))
      (List.init (Array.length t.nodes) Fun.id)
  in
  match owners with
  | [] -> Log.warn (fun m -> m "fleet RETRAIN %s: no node owns this policy" name)
  | (trainer, controls) :: others ->
    t.stats.retrains <- t.stats.retrains + 1;
    fleet_event t "fleet.retrain"
      [ ("policy", Gr_trace.Event.Str name); ("trainer", Int trainer) ];
    controls.Gr_kernel.Policy_slot.Registry.retrain ();
    List.iter
      (fun (id, _) ->
        t.stats.pushes <- t.stats.pushes + 1;
        fleet_event t "fleet.model_push"
          [ ("policy", Gr_trace.Event.Str name); ("target", Int id) ])
      others

let proxy_policy t name =
  if not (Hashtbl.mem t.proxied_policies name) then begin
    Hashtbl.replace t.proxied_policies name ();
    Gr_kernel.Policy_slot.Registry.register
      (Deployment.kernel t.control).Gr_kernel.Kernel.registry name
      {
        replace = proxy_replace t name;
        restore = proxy_restore t name;
        retrain = proxy_retrain t name;
      }
  end

(* A fleet monitor's FUNCTION trigger listens on the control kernel's
   hook table; forward each node's firings of that hook (tagging the
   origin) so one fleet monitor observes every member's call sites. A
   node fires the hook inside its own node phase mid-epoch, so the
   firing is buffered as an intent and replayed at the barrier. *)
let forward_hook t hook =
  if not (Hashtbl.mem t.forwarded_hooks hook) then begin
    Hashtbl.replace t.forwarded_hooks hook ();
    Array.iteri
      (fun id node ->
        let kernel = Deployment.kernel node in
        ignore
          (Gr_kernel.Hooks.subscribe kernel.Gr_kernel.Kernel.hooks hook (fun args ->
               Vec.push t.intents.(id)
                 { its = Gr_kernel.Kernel.now kernel; kind = Hook_fire { hook; args } })
            : Gr_kernel.Hooks.subscription))
      t.nodes
  end

let wire_monitor t (monitor : Gr_compiler.Monitor.t) =
  List.iter
    (function
      | Gr_compiler.Monitor.Function hook -> forward_hook t hook
      | Timer _ | On_change _ -> ())
    monitor.triggers;
  List.iter
    (function
      | Gr_compiler.Monitor.Replace name
      | Restore name
      | Retrain name ->
        proxy_policy t name
      | Report _ | Deprioritize _ | Kill _ | Save _ -> ())
    monitor.actions

let install_monitors ?version t monitors =
  (* Wire before installing so triggers are live the moment the engine
     arms them; wiring is idempotent so rollback on a failed install
     leaves only inert forwarders. *)
  List.iter (wire_monitor t) monitors;
  Deployment.install_monitors ?version t.control monitors

let uninstall t handle = Deployment.uninstall t.control handle

let install_source t src =
  match Gr_compiler.Compile.source src with
  | Error e -> Error (Deployment.Compile e)
  | Ok monitors -> install_monitors t monitors

let install_source_exn t src =
  match install_source t src with
  | Ok handles -> handles
  | Error e -> failwith (Format.asprintf "%a" Deployment.pp_error e)

let violations t = Gr_runtime.Engine.violations (Deployment.engine t.control)

let events_fired t =
  Array.fold_left
    (fun acc node ->
      acc + Gr_sim.Engine.events_fired (Deployment.kernel node).Gr_kernel.Kernel.engine)
    (Gr_sim.Engine.events_fired t.sim)
    t.nodes
