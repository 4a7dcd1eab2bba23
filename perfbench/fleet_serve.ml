(* fleet-serve: a 64-node sequential fleet. Every node feeds 50 keys
   through derive_periodic every 10ms, so each save is one sim event;
   50 fleet-wide TIMER(0, 100ms) AVG monitors read the merged keys (the
   JIT declines sharded reads, so they run on the register tier); and
   the scripted push client drives a Lifecycle on the fleet at its 50ms
   epoch barriers throughout the timed phase. *)

open Gr_util
module Fleet = Guardrails.Fleet
module D = Guardrails.Deployment
module Engine = Gr_runtime.Engine
module Store = Gr_runtime.Feature_store

let nodes = 64
let keys_per_node = 50
let monitors = 50
let feed_every = Time_ns.ms 10
let keys = Array.init keys_per_node (Printf.sprintf "key_%d")

(* Barrier hooks of the benchmark's own around the lifecycle's: [before]
   is registered ahead of Lifecycle.create and runs first, [after] runs
   last, so their gap is the lifecycle's barrier decision and the time
   from one [after] to the next [before] is the epoch's sim phase. In a
   traced repetition each node's sample closure stamps the clock as it
   returns its value, and an on_save subscriber registered after the
   engine's stamps it again when the save is done: the gap is the
   save. *)
type timing = {
  mutable last : int;
  mutable before_at : int;
  mutable sim_ns : int;
  mutable sampled_at : int;
  mutable save_ns : int;
  mutable barrier_ns : int;
  mutable epochs_ms : float list;
}

type t = {
  fleet : Fleet.t;
  handles : Engine.handle array;
  client : Client.t;
  timing : timing;
  setup_ns : int;
  compile_ns : int;
  install_ns : int;
}

let build ~seed ~traced =
  let t0 = Clock.now_ns () in
  let fleet = Fleet.create ~nodes ~seed () in
  let timing =
    { last = 0; before_at = 0; sim_ns = 0; sampled_at = 0; save_ns = 0; barrier_ns = 0; epochs_ms = [] }
  in
  Array.iter
    (fun node ->
      let kernel = D.kernel node in
      Gr_kernel.Kernel.register_policy kernel ~name:Client.policy ~replace:ignore ~restore:ignore
        ();
      let sample () = Rng.float kernel.Gr_kernel.Kernel.rng 100. in
      let sample =
        if traced then (fun () ->
          let v = sample () in
          timing.sampled_at <- Clock.now_ns ();
          v)
        else sample
      in
      Array.iter (fun key -> D.derive_periodic node ~key ~every:feed_every sample) keys;
      if traced then
        Store.on_save (D.store node) (fun _ _ ->
            timing.save_ns <- timing.save_ns + (Clock.now_ns () - timing.sampled_at)))
    (Fleet.nodes fleet);
  let compiled, compile_ns =
    Clock.time (fun () ->
        List.concat_map Gr_compiler.Compile.source_exn (Specs.fleet_monitors ~seed ~monitors))
  in
  let handles, install_ns =
    Clock.time (fun () -> Outcome.installed (Fleet.install_monitors fleet compiled))
  in
  Fleet.add_barrier_hook fleet (fun _ ->
      let now = Clock.now_ns () in
      timing.sim_ns <- timing.sim_ns + (now - timing.last);
      timing.before_at <- now);
  let client = Client.create ~seed (Guardrails.Lifecycle.Fleet fleet) in
  Fleet.add_barrier_hook fleet (fun _ ->
      let now = Clock.now_ns () in
      timing.barrier_ns <- timing.barrier_ns + (now - timing.before_at);
      timing.epochs_ms <- Clock.ms (now - timing.last) :: timing.epochs_ms;
      Client.on_barrier client;
      timing.last <- Clock.now_ns ());
  {
    fleet;
    handles = Array.of_list handles;
    client;
    timing;
    setup_ns = Clock.now_ns () - t0;
    compile_ns;
    install_ns;
  }

let stores fleet = Fleet.store fleet :: List.map D.store (Array.to_list (Fleet.nodes fleet))

(* Saves are measured in place. Checks run inside the sim phase too and
   are charged at the probed check cost; each reads one merged
   aggregate, so the probed merge is the store's share of a check.
   Admission is charged per push kind at its probed cost; the rest of
   the pushes and the barrier decisions are the lifecycle's. *)
let ledger timing ~wall_ns ~aggs ~checks ~push_ms ~kinds (p : Probes.t) =
  let f = float_of_int in
  let in_checks = f checks *. p.check_ns in
  let trace = Float.min in_checks (f checks *. p.record_ns) in
  let store_read = Float.min (in_checks -. trace) (f aggs *. p.agg_ns) in
  let analysis = List.fold_left (fun a k -> a +. (p.admit_ms k *. 1e6)) 0. kinds in
  let push_ns = List.fold_left (fun a ms -> a +. (ms *. 1e6)) 0. push_ms in
  Outcome.close ~wall_ns
    [
      ("sim", f (timing.sim_ns - timing.save_ns) -. in_checks);
      ("hooks", 0.);
      ("store_save", f timing.save_ns);
      ("store_read", store_read);
      ("engine", in_checks -. store_read -. trace);
      ("trace", trace);
      ("linnos", 0.);
      ("analysis", analysis);
      ("lifecycle", f timing.barrier_ns +. push_ns -. analysis);
    ]

let probes st ~seed =
  let node0 = Fleet.node st.fleet 0 in
  Probes.measure ~seed ~save_store:(D.store node0) ~save_keys:keys ~load_store:(D.store node0) ~load_keys:keys ~agg_store:(Fleet.store st.fleet)
    ~agg_keys:keys ~engine:(Fleet.engine st.fleet) ~handles:st.handles

let rep ~seed ~traced =
  let st = build ~seed ~traced in
  Gc.compact ();
  let stores = stores st.fleet and engine = Fleet.engine st.fleet in
  let c0 = Outcome.counts stores and events0 = Fleet.events_fired st.fleet in
  let g0 = Gc.quick_stat () in
  st.timing.last <- Clock.now_ns ();
  let (), wall_ns = Clock.time (fun () -> Fleet.run_until st.fleet Client.span) in
  let g1 = Gc.quick_stat () in
  let c = Outcome.counts_since c0 stores in
  let events = Fleet.events_fired st.fleet - events0 in
  let checks, firings, est_work_ns = Outcome.engine_totals engine in
  let own_checks, own_firings =
    Array.fold_left
      (fun (c, f) h ->
        let s = Engine.Stats.get engine h in
        (c + s.checks, f + s.action_firings))
      (0, 0) st.handles
  in
  let hook_fires =
    Array.fold_left
      (fun a node -> a + Gr_kernel.Hooks.fire_count (D.kernel node).hooks "blk:io_complete")
      0 (Fleet.nodes st.fleet)
  in
  let jit_monitors, reg_monitors = Outcome.tiers st.handles in
  let client = Client.summary st.client in
  let checked, failures =
    Outcome.gate
      [
        ("saves", c.n_saves, nodes * keys_per_node * (Client.span / feed_every));
        ("fleet monitor checks", own_checks, monitors * ((Client.span / Time_ns.ms 100) + 1));
        ("fleet monitor firings", own_firings, 0);
        ("promotions", client.promotions, Client.windows / 2);
        ("rollbacks", client.rollbacks, Client.windows / 2);
      ]
  in
  let timing = st.timing in
  let outcome =
    {
      Outcome.setup_ns = st.setup_ns;
      wall_ns;
      sim_ns = Client.span;
      saves = c.n_saves;
      loads = c.n_loads;
      agg_hits = c.n_hits;
      agg_misses = c.n_misses;
      expired = c.n_expired;
      events;
      hook_fires;
      checks;
      firings;
      est_work_ns;
      reports = List.length (Engine.violations engine);
      jit_monitors;
      reg_monitors;
      gc_minor = g1.minor_collections - g0.minor_collections;
      gc_major = g1.major_collections - g0.major_collections;
      gc_promoted = g1.promoted_words -. g0.promoted_words;
      train_ns = 0;
      compile_ns = st.compile_ns;
      install_ns = st.install_ns;
      monitors;
      client;
      barrier_ns = timing.barrier_ns;
      epoch_ms = List.rev timing.epochs_ms;
      fanouts = 0;
      fanout_ns = 0;
      ledger =
        (if traced then
           Some
             (ledger timing ~wall_ns ~aggs:(c.n_hits + c.n_misses) ~checks ~push_ms:client.push_ms
                ~kinds:client.kinds)
         else None);
      checked = checked + Client.pushes;
      failures = failures @ client.failures;
    }
  in
  (outcome, fun () -> probes st ~seed)
