open Gr_util
module Monitor = Gr_compiler.Monitor
module Tracer = Gr_trace.Tracer
module Event = Gr_trace.Event
module Metrics = Gr_trace.Metrics
module Selfcost = Gr_trace.Selfcost

(* Run [f] with [span] as the causal parent of everything it emits
   (saving/restoring the previous parent — actions can nest through
   store cascades). *)
let with_current tr span f =
  match span with
  | None -> f ()
  | Some _ ->
    let prev = Tracer.current_span tr in
    Tracer.set_current tr span;
    Fun.protect ~finally:(fun () -> Tracer.set_current tr prev) f

let src = Logs.Src.create "guardrails.engine" ~doc:"Guardrail runtime engine"

module Log = (val Logs.src_log src : Logs.LOG)

type config = {
  cooldown : Time_ns.t;
  retrain_delay : Time_ns.t;
  retrain_min_interval : Time_ns.t;
  oscillation_window : Time_ns.t;
  oscillation_flips : int;
  max_cascade_depth : int;
  auto_damp : bool;
}

let default_config =
  {
    cooldown = Time_ns.zero;
    retrain_delay = Time_ns.ms 50;
    retrain_min_interval = Time_ns.sec 1;
    oscillation_window = Time_ns.sec 10;
    oscillation_flips = 6;
    max_cascade_depth = 8;
    auto_damp = false;
  }

type violation_record = {
  monitor : string;
  at : Time_ns.t;
  message : string;
  snapshot : (string * float) list;
}

type state = {
  monitor : Monitor.t;
  id : int;
  version : int option;
      (** the spec version this monitor came from, when the install
          went through the versioned lifecycle (grc serve) *)
  tier : Vm.tier;  (** the tier the rule and SAVE programs execute on *)
  metrics : Metrics.account;
      (** this monitor's own account, registered at install: the only
          per-check counter *)
  exec : unit -> Vm.result;
      (** the rule, specialized onto [tier] at install *)
  actions_costed : (Monitor.action * save_target option) list;
      (** each action paired, for a SAVE, with its value program's
          executor and its store target, both built at install *)
  demands : Gr_compiler.Deps.agg_demand list;
      (** aggregate demands registered with the store on install *)
  mutable installed : bool;
  mutable retrains_requested : int;
  mutable retrains_suppressed : int;
  mutable in_violation : bool;
  mutable last_firing : Time_ns.t option;
  flips : Time_ns.t Ring.t;
  mutable oscillation_alerts : int;
  mutable cascade_drops : int;
  mutable cooldown : Time_ns.t;
  mutable timer_handles : Gr_sim.Engine.handle list;
  mutable hook_subs : Gr_kernel.Hooks.subscription list;
}

(* A SAVE action's value program, specialized like the rule, and the
   save handle of its key. *)
and save_target = { run : unit -> Vm.result; target : Feature_store.save_handle }

type handle = state

type t = {
  kernel : Gr_kernel.Kernel.t;
  store : Feature_store.t;
  config : config;
  default_tier : Vm.tier;
  tracer : Tracer.t;
  monitors : state Vec.t;
  mutable next_id : int;
  on_change_index : (string, state list ref) Hashtbl.t;
  mutable deprioritize : (cls:string -> weight:int -> unit) option;
  mutable kill : (cls:string -> unit) option;
  mutable last_retrain : (string, Time_ns.t) Hashtbl.t;
  mutable cascade_depth : int;
}

let rec create ~kernel ~store ?(config = default_config) ?tracer ?(engine = Vm.Jit) () =
  let tracer =
    match tracer with
    | Some tr -> tr
    | None ->
      (* Private tracer: trace events stay off, but the metrics
         registry and the REPORT channel always run. *)
      Tracer.create ~clock:(fun () -> Gr_kernel.Kernel.now kernel) ()
  in
  let t =
    {
      kernel;
      store;
      config;
      default_tier = engine;
      tracer;
      monitors = Vec.create ();
      next_id = 0;
      on_change_index = Hashtbl.create 16;
      deprioritize = None;
      kill = None;
      last_retrain = Hashtbl.create 8;
      cascade_depth = 0;
    }
  in
  (* One store subscription dispatches all ON_CHANGE triggers. *)
  Feature_store.on_save store (fun key _value -> dispatch_on_change t key);
  t

(* Also the fleet's cross-store glue: saves landing in the global
   store tier are replayed into each node engine so ON_CHANGE(GLOBAL
   key) triggers fire on nodes too. *)
and dispatch_on_change t key =
  match Hashtbl.find_opt t.on_change_index key with
  | None -> ()
  | Some states ->
    List.iter (fun st -> on_change_check t ~via:("on_change:" ^ key) st) !states

and on_change_check t ~via st = check t ~via st

(* The REPORT action's structured event: the paper's eBPF-ringbuf
   stream to userspace. Always emitted (the violation log is a view
   over the report sink); carries the monitor id, the violated rule's
   disassembly, the message and the named store snapshot. *)
and report t st ~message ~snapshot =
  let rule_text =
    Format.asprintf "%a" (Gr_compiler.Ir.pp_program ~slots:st.monitor.Monitor.slots)
      st.monitor.Monitor.rule
  in
  Tracer.report t.tracer st.monitor.Monitor.name
    ~args:
      ([
         ("message", Event.Str message);
         ("monitor_id", Event.Int st.id);
         ("rule", Event.Str rule_text);
       ]
      @ List.map (fun (k, v) -> ("key:" ^ k, Event.Float v)) snapshot)

(* Emits the action's trace instant and returns its span id so the
   caller can parent the action's downstream effects (store saves,
   policy-slot flips, fleet proxies) to the action itself. [?parent]
   overrides the causal parent — the RETRAIN.run -> RETRAIN.scheduled
   cross-dispatch edge. *)
and action_instant ?parent t st name args =
  if Tracer.enabled t.tracer then begin
    let span = Tracer.fresh_span t.tracer in
    Tracer.instant t.tracer ~cat:"action"
      ~args:(("monitor", Event.Str st.monitor.Monitor.name) :: args)
      ~span ?parent name;
    Some span
  end
  else None

and run_actions t st =
  let now = Gr_kernel.Kernel.now t.kernel in
  st.last_firing <- Some now;
  Metrics.record_fire st.metrics;
  let reported = ref false in
  List.iter
    (fun (action, save) ->
      match (action : Monitor.action) with
      | Monitor.Report { message; keys } ->
        reported := true;
        let snapshot = List.map (fun k -> (k, Feature_store.load t.store k)) keys in
        report t st ~message ~snapshot;
        Log.info (fun m ->
            m "guardrail %s violated at %a: %s" st.monitor.Monitor.name Time_ns.pp now message)
      | Monitor.Replace policy -> (
        let aspan = action_instant t st "REPLACE" [ ("policy", Event.Str policy) ] in
        match Gr_kernel.Policy_slot.Registry.find t.kernel.registry policy with
        | Some controls -> with_current t.tracer aspan controls.replace
        | None ->
          Log.warn (fun m -> m "REPLACE: unknown policy %S (monitor %s)" policy st.monitor.name))
      | Monitor.Restore policy -> (
        let aspan = action_instant t st "RESTORE" [ ("policy", Event.Str policy) ] in
        match Gr_kernel.Policy_slot.Registry.find t.kernel.registry policy with
        | Some controls -> with_current t.tracer aspan controls.restore
        | None ->
          Log.warn (fun m -> m "RESTORE: unknown policy %S (monitor %s)" policy st.monitor.name))
      | Monitor.Retrain policy -> (
        match Gr_kernel.Policy_slot.Registry.find t.kernel.registry policy with
        | None ->
          Log.warn (fun m -> m "RETRAIN: unknown policy %S (monitor %s)" policy st.monitor.name)
        | Some controls ->
          let last = Hashtbl.find_opt t.last_retrain policy in
          let allowed =
            match last with
            | None -> true
            | Some at -> Time_ns.diff now at >= t.config.retrain_min_interval
          in
          if not allowed then begin
            st.retrains_suppressed <- st.retrains_suppressed + 1;
            ignore
              (action_instant t st "RETRAIN.suppressed" [ ("policy", Event.Str policy) ]
                : int option)
          end
          else begin
            Hashtbl.replace t.last_retrain policy now;
            st.retrains_requested <- st.retrains_requested + 1;
            let sched =
              action_instant t st "RETRAIN.scheduled" [ ("policy", Event.Str policy) ]
            in
            (* Asynchronous offline retraining (§3.2). The run fires
               in a later dispatch; its explicit [?parent] is the
               cross-time causal edge back to the scheduling. *)
            ignore
              (Gr_sim.Engine.schedule_after t.kernel.engine t.config.retrain_delay
                 (fun _ ->
                   let run_span =
                     action_instant ?parent:sched t st "RETRAIN.run"
                       [ ("policy", Event.Str policy) ]
                   in
                   with_current t.tracer run_span controls.retrain)
                : Gr_sim.Engine.handle)
          end)
      | Monitor.Deprioritize { cls; weight } -> (
        let aspan =
          action_instant t st "DEPRIORITIZE"
            [ ("cls", Event.Str cls); ("weight", Event.Int weight) ]
        in
        match t.deprioritize with
        | Some handler -> with_current t.tracer aspan (fun () -> handler ~cls ~weight)
        | None ->
          Log.warn (fun m -> m "DEPRIORITIZE(%s): no handler wired (monitor %s)" cls st.monitor.name))
      | Monitor.Kill cls -> (
        let aspan = action_instant t st "KILL" [ ("cls", Event.Str cls) ] in
        match t.kill with
        | Some handler -> with_current t.tracer aspan (fun () -> handler ~cls)
        | None -> Log.warn (fun m -> m "KILL(%s): no handler wired (monitor %s)" cls st.monitor.name))
      | Monitor.Save { key; value = _ } ->
        let save = Option.get save in
        let result = save.run () in
        Metrics.record_action_cost st.metrics ~cost_ns:result.est_cost_ns;
        let aspan =
          action_instant t st "SAVE"
            [ ("key", Event.Str key); ("value", Event.Float result.value) ]
        in
        with_current t.tracer aspan (fun () ->
            Feature_store.handle_save save.target result.value))
    st.actions_costed;
  if not !reported then report t st ~message:"<violation>" ~snapshot:[]

and record_flip t st =
  let now = Gr_kernel.Kernel.now t.kernel in
  Ring.push st.flips now;
  let cutoff = Time_ns.diff now t.config.oscillation_window in
  Ring.drop_while_oldest (fun at -> Time_ns.compare at cutoff < 0) st.flips;
  if Ring.length st.flips >= t.config.oscillation_flips then begin
    st.oscillation_alerts <- st.oscillation_alerts + 1;
    Ring.clear st.flips;
    if t.config.auto_damp then
      st.cooldown <- Time_ns.max (Time_ns.ms 100) (2 * st.cooldown);
    if Tracer.enabled t.tracer then
      Tracer.instant t.tracer ~cat:"oscillation"
        ~args:
          [
            ("monitor", Event.Str st.monitor.Monitor.name);
            ("flips", Event.Int t.config.oscillation_flips);
            ("damped", Event.Bool t.config.auto_damp);
            ("cooldown_ns", Event.Int st.cooldown);
          ]
        "oscillation.alert";
    Log.warn (fun m ->
        m "guardrail %s is oscillating (%d state flips within %a)%s" st.monitor.Monitor.name
          t.config.oscillation_flips Time_ns.pp t.config.oscillation_window
          (if t.config.auto_damp then
             Format.asprintf "; action cooldown damped to %a" Time_ns.pp st.cooldown
           else ""))
  end

and record_check st (result : Vm.result) ~healthy =
  Metrics.record_check st.metrics ~cost_ns:result.est_cost_ns ~insts:result.insts_executed
    ~samples:result.samples_scanned ~violated:(not healthy)

and check ?(via = "manual") t st =
  if st.installed then begin
    if t.cascade_depth >= t.config.max_cascade_depth then
      st.cascade_drops <- st.cascade_drops + 1
    else begin
      t.cascade_depth <- t.cascade_depth + 1;
      Fun.protect
        ~finally:(fun () -> t.cascade_depth <- t.cascade_depth - 1)
        (fun () ->
          let result =
            if Selfcost.enabled () then Selfcost.time Selfcost.Check st.exec else st.exec ()
          in
          let healthy = Vm.truthy result.value in
          if Selfcost.enabled () then
            Selfcost.time Selfcost.Metrics_record (fun () -> record_check st result ~healthy)
          else record_check st result ~healthy;
          (* The check as a Complete span whose duration is the VM's
             dynamic cost estimate — per-monitor overhead on the
             timeline. Its span id is the causal parent of everything
             the decision does (flip alerts, actions, the REPORT). *)
          let check_span =
            if Tracer.enabled t.tracer then begin
              let span = Tracer.fresh_span t.tracer in
              Tracer.complete t.tracer ~cat:"check" ~dur_ns:result.est_cost_ns
                ~args:
                  [
                    ("monitor_id", Event.Int st.id);
                    ("trigger", Event.Str via);
                    ("insts", Event.Int result.insts_executed);
                    ("samples_scanned", Event.Int result.samples_scanned);
                    ("violated", Event.Bool (not healthy));
                  ]
                ~span st.monitor.Monitor.name;
              Some span
            end
            else None
          in
          with_current t.tracer check_span (fun () ->
              if healthy then begin
                if st.in_violation then begin
                  st.in_violation <- false;
                  record_flip t st
                end
              end
              else begin
                if not st.in_violation then begin
                  st.in_violation <- true;
                  record_flip t st
                end;
                let now = Gr_kernel.Kernel.now t.kernel in
                let cooled =
                  match st.last_firing with
                  | None -> true
                  | Some at -> Time_ns.diff now at >= st.cooldown
                in
                if cooled then run_actions t st
              end))
    end
  end

let arm_trigger t st (trigger : Monitor.trigger) =
  match trigger with
  | Monitor.Timer { start_ns; interval_ns; stop_ns } ->
    let handle =
      Gr_sim.Engine.every t.kernel.engine
        ~start:(Time_ns.max start_ns (Gr_kernel.Kernel.now t.kernel))
        ?stop:stop_ns ~interval:interval_ns
        (fun _ -> check ~via:"timer" t st)
    in
    st.timer_handles <- handle :: st.timer_handles
  | Monitor.Function hook ->
    let sub =
      Gr_kernel.Hooks.subscribe t.kernel.hooks hook (fun _args ->
          check ~via:("function:" ^ hook) t st)
    in
    st.hook_subs <- sub :: st.hook_subs
  | Monitor.On_change key ->
    let states =
      match Hashtbl.find_opt t.on_change_index key with
      | Some r -> r
      | None ->
        let r = ref [] in
        Hashtbl.add t.on_change_index key r;
        r
    in
    states := st :: !states

let build_exec t ~tier ~slots program =
  match (tier : Vm.tier) with
  | Vm.Tree ->
    let static_cost_ns = Vm.static_cost_ns program in
    fun () -> Vm.run ~static_cost_ns ~store:t.store ~slots program
  | Vm.Jit ->
    let j = Jit.compile ~store:t.store ~slots program in
    fun () -> Jit.run j

let install ?engine ?version t monitor =
  match Gr_compiler.Verify.verify monitor with
  | Error errs -> Error errs
  | Ok _stats ->
    let demands = Gr_compiler.Deps.aggregates monitor in
    (* Register the monitor's aggregate shapes before specializing the
       executors: registration switches them to the store's streaming
       path, and the JIT's aggregate handles pin the streaming demand
       at compile time. Refcounting inside the store lets monitors
       share demands. *)
    List.iter
      (fun (d : Gr_compiler.Deps.agg_demand) ->
        Feature_store.register_demand t.store ~key:d.key ~fn:d.fn ~window_ns:d.window_ns
          ~param:d.param)
      demands;
    let tier = match engine with Some e -> e | None -> t.default_tier in
    let slots = monitor.Monitor.slots in
    let st =
      {
        monitor;
        id = t.next_id;
        version;
        tier;
        metrics = Metrics.register (Tracer.metrics t.tracer) monitor.Monitor.name;
        exec = build_exec t ~tier ~slots monitor.Monitor.rule;
        actions_costed =
          List.map
            (fun (action : Monitor.action) ->
              match action with
              | Monitor.Save { key; value } ->
                ( action,
                  Some
                    {
                      run = build_exec t ~tier ~slots value;
                      target = Feature_store.save_handle t.store key;
                    } )
              | _ -> (action, None))
            monitor.Monitor.actions;
        demands;
        installed = true;
        retrains_requested = 0;
        retrains_suppressed = 0;
        in_violation = false;
        last_firing = None;
        flips = Ring.create ~capacity:64;
        oscillation_alerts = 0;
        cascade_drops = 0;
        cooldown = t.config.cooldown;
        timer_handles = [];
        hook_subs = [];
      }
    in
    t.next_id <- t.next_id + 1;
    Vec.push t.monitors st;
    List.iter (arm_trigger t st) monitor.triggers;
    if Tracer.enabled t.tracer then
      Tracer.instant t.tracer ~cat:"runtime"
        ~args:
          [
            ("monitor", Event.Str monitor.Monitor.name);
            ("triggers", Event.Int (List.length monitor.triggers));
          ]
        "monitor.install";
    Ok st

let uninstall t st =
  (* The [installed] guard makes the whole teardown — and in
     particular the demand release below — exactly-once: a double
     uninstall (rollback paths can race operator commands) must not
     decrement a shared streaming aggregate's refcount twice and kill
     state a still-installed monitor depends on. *)
  if st.installed then begin
    st.installed <- false;
    List.iter Gr_sim.Engine.cancel st.timer_handles;
    List.iter (Gr_kernel.Hooks.unsubscribe t.kernel.hooks) st.hook_subs;
    (* Release this monitor's demand references; shapes shared with
       still-installed monitors keep streaming. *)
    List.iter
      (fun (d : Gr_compiler.Deps.agg_demand) ->
        Feature_store.release_demand t.store ~key:d.key ~fn:d.fn ~window_ns:d.window_ns
          ~param:d.param)
      st.demands;
    Hashtbl.iter
      (fun _ states -> states := List.filter (fun s -> s.id <> st.id) !states)
      t.on_change_index;
    (* Drop the state record from the monitor table. A load-once
       deployment never noticed the leak, but a serving engine
       install/uninstalls monitors on every push/rollback cycle and
       the dead records (with their flip rings) accumulated without
       bound — and kept padding pp_report/Stats forever. The handle
       itself stays valid for post-mortem [Stats.get]. *)
    Vec.filter_in_place (fun (s : state) -> s.id <> st.id) t.monitors;
    (* Per-name telemetry keeps the totals; the handle keeps its
       account. *)
    Metrics.retire (Tracer.metrics t.tracer) st.metrics;
    if Tracer.enabled t.tracer then
      Tracer.instant t.tracer ~cat:"runtime"
        ~args:[ ("monitor", Event.Str st.monitor.Monitor.name) ]
        "monitor.uninstall"
  end

let monitor_name st = st.monitor.Monitor.name
let version st = st.version
let installed st = st.installed
let installed_count t = Vec.length t.monitors
let tier st = st.tier
let default_tier t = t.default_tier
let set_deprioritize_handler t handler = t.deprioritize <- Some handler
let set_kill_handler t handler = t.kill <- Some handler
let tracer t = t.tracer
let metrics t = Tracer.metrics t.tracer

let check_now t st =
  let before = st.metrics.violations in
  check ~via:"manual" t st;
  st.metrics.violations = before

module Stats = struct
  type s = {
    checks : int;
    violations : int;
    action_firings : int;
    retrains_requested : int;
    retrains_suppressed : int;
    overhead_ns : float;
    oscillation_alerts : int;
    cascade_drops : int;
    effective_cooldown : Time_ns.t;
  }

  let get _t (st : state) =
    let m = st.metrics in
    {
      checks = m.checks;
      violations = m.violations;
      action_firings = m.fires;
      retrains_requested = st.retrains_requested;
      retrains_suppressed = st.retrains_suppressed;
      overhead_ns = m.cost.vm_ns;
      oscillation_alerts = st.oscillation_alerts;
      cascade_drops = st.cascade_drops;
      effective_cooldown = st.cooldown;
    }

  let total_overhead_ns t =
    Vec.fold (fun acc (st : state) -> acc +. st.metrics.cost.vm_ns) 0. t.monitors

  let total_checks t = Vec.fold (fun acc (st : state) -> acc + st.metrics.checks) 0 t.monitors
end

(* The violation log is a view over the report sink: each REPORT trace
   event maps back to the record shape callers have always seen. *)
let violation_of_report (ev : Event.t) : violation_record =
  let message = ref "<violation>" in
  let snapshot = ref [] in
  List.iter
    (fun (k, (a : Event.arg)) ->
      match a with
      | Event.Str s when String.equal k "message" -> message := s
      | Event.Float v when String.length k > 4 && String.sub k 0 4 = "key:" ->
        snapshot := (String.sub k 4 (String.length k - 4), v) :: !snapshot
      | _ -> ())
    ev.args;
  { monitor = ev.name; at = ev.ts; message = !message; snapshot = List.rev !snapshot }

let violations t =
  List.map violation_of_report (Gr_trace.Sink.to_list (Tracer.reports t.tracer))

let oscillating_monitors t =
  Vec.fold
    (fun acc st -> if st.oscillation_alerts > 0 then st.monitor.Monitor.name :: acc else acc)
    [] t.monitors
  |> List.rev

let pp_report fmt t =
  Format.fprintf fmt "%-28s %8s %10s %8s %9s %12s %s@\n" "monitor" "checks" "violations"
    "firings" "retrains" "overhead" "state";
  Vec.iter
    (fun (st : state) ->
      let m = st.metrics in
      Format.fprintf fmt "%-28s %8d %10d %8d %9d %10.0fns %s@\n" st.monitor.Monitor.name
        m.checks m.violations m.fires st.retrains_requested m.cost.vm_ns
        (String.concat "+"
           (List.filter
              (fun s -> s <> "")
              [
                (if not st.installed then "uninstalled" else "");
                (if st.in_violation then "VIOLATED" else "");
                (if st.oscillation_alerts > 0 then "oscillating" else "");
              ]
           |> function [] -> [ "ok" ] | l -> l)))
    t.monitors;
  let recent = ref 0 in
  List.iter
    (fun v ->
      if !recent < 5 then begin
        incr recent;
        Format.fprintf fmt "  %a %s: %s%s@\n" Time_ns.pp v.at v.monitor v.message
          (match v.snapshot with
          | [] -> ""
          | kvs ->
            " ["
            ^ String.concat "; " (List.map (fun (k, x) -> Printf.sprintf "%s=%.4g" k x) kvs)
            ^ "]")
      end)
    (List.rev (violations t));
  let reports = Tracer.reports t.tracer in
  if Gr_trace.Sink.dropped reports > 0 then
    Format.fprintf fmt "  (%d report(s) dropped by the bounded sink)@\n"
      (Gr_trace.Sink.dropped reports)
