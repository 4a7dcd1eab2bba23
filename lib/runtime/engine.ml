(* ---------- the guardrail engine ----------

   Monitors check inside trigger groups. A group is what one trigger
   runs: every monitor armed on one FUNCTION hook holds one place in
   its hook's group, under a single hook subscription, and likewise
   every monitor armed on one ON_CHANGE key under a single watch of the
   key's store entry; a TIMER trigger is a group of one with its own
   periodic sim event. A group is a run of adjacent subscriptions: a
   monitor joins the newest group of its hook or key only while that
   group's subscription or watch is still the last one there (a
   listener subscribed from elsewhere closes the run), so every check
   keeps the place in dispatch order that a subscription of its own
   would have. Every group runs the engine's tier.

   A dispatch checks the members in install order under one
   cascade-depth step. JIT members compile into the group's prologue
   (Jit.member): each distinct LOAD or AGG input is read once per frame
   epoch into a frame the members share, while each member still counts
   its own logical reads, so store counters and trace bytes are those
   of per-monitor interpretation. The epoch starts at the dispatch and
   again after any member's actions or fault, so a SAVE is seen by the
   members after it. A member's fault on a hook is contained exactly as
   a raising hook listener's is: counted, traced, struck, and
   quarantined after [max_strikes], while the members after it still
   check. Installing a member compiles only its own program. A member
   leaves service one way, for an uninstall and a quarantine alike: out
   of its group (the member array is copied, so a dispatch in flight
   keeps its snapshot but skips it), out of the JIT group's prologue
   and bank, and out of its monitor's armed triggers. Accounts, spans,
   flips, cooldowns and cascade drops stay per monitor. *)

open Gr_util
module Monitor = Gr_compiler.Monitor
module Tracer = Gr_trace.Tracer
module Event = Gr_trace.Event
module Metrics = Gr_trace.Metrics

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
  tier : Vm.tier;  (** the engine's tier, which the rule and SAVE programs execute on *)
  metrics : Metrics.account;
      (** this monitor's own account, registered at install: the only
          per-check counter *)
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
  mutable armed : member list;
      (** one per trigger still in service, in arming order *)
}

(* A SAVE action's value program, specialized like the rule, and the
   save handle of its key. *)
and save_target = { run : unit -> Vm.result; target : Feature_store.save_handle }

(* A monitor armed on one trigger: its place in the trigger's group,
   with the rule specialized for that group. *)
and member = {
  st : state;
  rule : rule;
  group : group;
  listener : int;  (** its hook listener id, in a FUNCTION group *)
  mutable strikes : int;
  mutable serving : bool;  (** false once it has left its group *)
}

and rule =
  | Jit of Jit.t  (** compiled into the group's prologue *)
  | Tree of { program : Gr_compiler.Ir.program; static_cost_ns : float; out : Vm.out }

(* The monitors one trigger runs, in install order, under one hook
   subscription, key watch or timer. [members] is replaced, never
   edited, except for appending past [len], so a dispatch in flight
   keeps the snapshot it started with. *)
and group = {
  via : string;  (** the trigger label of the members' check spans *)
  frame : Jit.group option;  (** a JIT group's shared prologue *)
  hook : string option;  (** a FUNCTION group's hook, which contains its faults *)
  mutable members : member array;
  mutable len : int;
  mutable extend : unit -> int option;
      (** a listener id for one more member, while the group's
          subscription or watch is still the last on its hook or key *)
  mutable disarm : unit -> unit;
}

type handle = state

type t = {
  kernel : Gr_kernel.Kernel.t;
  store : Feature_store.t;
  config : config;
  tier : Vm.tier;
  tracer : Tracer.t;
  monitors : state Vec.t;
  mutable next_id : int;
  mutable deprioritize : (cls:string -> weight:int -> unit) option;
  mutable kill : (cls:string -> unit) option;
  mutable last_retrain : (string, Time_ns.t) Hashtbl.t;
  mutable cascade_depth : int;
  open_groups : (string, group) Hashtbl.t;
      (** the newest group of each hook and key, by [via]: the one a
          new monitor may join *)
}

let create ~kernel ~store ?(config = default_config) ?tracer ?(engine = Vm.Jit) () =
  let tracer =
    match tracer with
    | Some tr -> tr
    | None ->
      (* Private tracer: trace events stay off, but the metrics
         registry and the REPORT channel always run. *)
      Tracer.create ~clock:(fun () -> Gr_kernel.Kernel.now kernel) ()
  in
  {
    kernel;
    store;
    config;
    tier = engine;
    tracer;
    monitors = Vec.create ();
    next_id = 0;
    deprioritize = None;
    kill = None;
    last_retrain = Hashtbl.create 8;
    cascade_depth = 0;
    open_groups = Hashtbl.create 8;
  }

(* The REPORT action's structured event: the paper's eBPF-ringbuf
   stream to userspace. Always emitted (the violation log is a view
   over the report sink); carries the monitor id, the violated rule's
   disassembly, the message and the named store snapshot. *)
let report t st ~message ~snapshot =
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
let action_instant ?parent t st name args =
  if Tracer.enabled t.tracer then begin
    let span = Tracer.fresh_span t.tracer in
    Tracer.instant t.tracer ~cat:"action"
      ~args:(("monitor", Event.Str st.monitor.Monitor.name) :: args)
      ~span ?parent name;
    Some span
  end
  else None

let run_actions t st =
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
        | Some controls -> Tracer.with_parent t.tracer aspan controls.replace
        | None ->
          Log.warn (fun m -> m "REPLACE: unknown policy %S (monitor %s)" policy st.monitor.name))
      | Monitor.Restore policy -> (
        let aspan = action_instant t st "RESTORE" [ ("policy", Event.Str policy) ] in
        match Gr_kernel.Policy_slot.Registry.find t.kernel.registry policy with
        | Some controls -> Tracer.with_parent t.tracer aspan controls.restore
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
                   Tracer.with_parent t.tracer run_span controls.retrain)
                : Gr_sim.Engine.handle)
          end)
      | Monitor.Deprioritize { cls; weight } -> (
        let aspan =
          action_instant t st "DEPRIORITIZE"
            [ ("cls", Event.Str cls); ("weight", Event.Int weight) ]
        in
        match t.deprioritize with
        | Some handler -> Tracer.with_parent t.tracer aspan (fun () -> handler ~cls ~weight)
        | None ->
          Log.warn (fun m -> m "DEPRIORITIZE(%s): no handler wired (monitor %s)" cls st.monitor.name))
      | Monitor.Kill cls -> (
        let aspan = action_instant t st "KILL" [ ("cls", Event.Str cls) ] in
        match t.kill with
        | Some handler -> Tracer.with_parent t.tracer aspan (fun () -> handler ~cls)
        | None -> Log.warn (fun m -> m "KILL(%s): no handler wired (monitor %s)" cls st.monitor.name))
      | Monitor.Save { key; value = _ } ->
        let save = Option.get save in
        let result = save.run () in
        Metrics.record_action_cost st.metrics ~cost_ns:result.est_cost_ns;
        let aspan =
          action_instant t st "SAVE"
            [ ("key", Event.Str key); ("value", Event.Float result.value) ]
        in
        Tracer.with_parent t.tracer aspan (fun () ->
            Feature_store.handle_save save.target result.value))
    st.actions_costed;
  if not !reported then report t st ~message:"<violation>" ~snapshot:[]

let record_flip t st =
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

(* The verdict's flips and, past the cooldown, actions. Answers
   whether actions ran. *)
let decide t st ~healthy =
  if healthy then begin
    if st.in_violation then begin
      st.in_violation <- false;
      record_flip t st
    end;
    false
  end
  else begin
    if not st.in_violation then begin
      st.in_violation <- true;
      record_flip t st
    end;
    let now = Gr_kernel.Kernel.now t.kernel in
    let cooled =
      match st.last_firing with None -> true | Some at -> Time_ns.diff now at >= st.cooldown
    in
    if cooled then run_actions t st;
    cooled
  end

(* After the rule has run: the account, the check span, and the
   decision. Answers whether actions ran. [o] is read before any action
   runs, which may check this monitor again and overwrite it. *)
let conclude t st ~via (o : Vm.out) ~insts ~samples =
  (* Ir.truthy, written out: a call into another module boxes the
     float when cross-module inlining is off (the dev profile). *)
  let healthy = o.value <> 0. in
  Metrics.record_check_out st.metrics o ~insts ~samples ~violated:(not healthy);
  if Tracer.enabled t.tracer then begin
    (* The check as a Complete span whose duration is the VM's dynamic
       cost estimate — per-monitor overhead on the timeline. Its span
       id is the causal parent of everything the decision does (flip
       alerts, actions, the REPORT). *)
    let span = Tracer.fresh_span t.tracer in
    Tracer.complete t.tracer ~cat:"check" ~dur_ns:o.cost_ns
      ~args:
        [
          ("monitor_id", Event.Int st.id);
          ("trigger", Event.Str via);
          ("insts", Event.Int insts);
          ("samples_scanned", Event.Int samples);
          ("violated", Event.Bool (not healthy));
        ]
      ~span st.monitor.Monitor.name;
    Tracer.with_parent t.tracer (Some span) (fun () -> decide t st ~healthy)
  end
  else decide t st ~healthy

(* One check of an installed monitor, inside its group's dispatch:
   runs the rule against the group's frame epoch. Answers whether
   actions ran, after which the frame is stale. *)
let check t ~via m =
  match m.rule with
  | Jit j ->
    Jit.exec j;
    conclude t m.st ~via (Jit.out j) ~insts:(Jit.insts j) ~samples:(Jit.samples j)
  | Tree r ->
    let res =
      Vm.run ~static_cost_ns:r.static_cost_ns ~store:t.store ~slots:m.st.monitor.slots r.program
    in
    r.out.value <- res.value;
    r.out.cost_ns <- res.est_cost_ns;
    conclude t m.st ~via r.out ~insts:res.insts_executed ~samples:res.samples_scanned

let invalidate g = match g.frame with Some f -> Jit.invalidate f | None -> ()

let disarm t g =
  g.disarm ();
  g.disarm <- ignore;
  g.extend <- (fun () -> None);
  match Hashtbl.find_opt t.open_groups g.via with
  | Some g' when g' == g -> Hashtbl.remove t.open_groups g.via
  | _ -> ()

(* Takes a member out of service, for an uninstall or a quarantine:
   out of its group, copying the array (an emptied group lets go of its
   trigger), out of the JIT group's prologue and bank, whose cells a
   later member may reuse, and out of its monitor's armed triggers. *)
let leave t m =
  let g = m.group in
  m.serving <- false;
  let kept = List.filter (fun m' -> m' != m) (Array.to_list (Array.sub g.members 0 g.len)) in
  g.members <- Array.of_list kept;
  g.len <- List.length kept;
  if g.len = 0 then disarm t g;
  (match m.rule with Jit j -> Jit.leave j | Tree _ -> ());
  m.st.armed <- List.filter (fun m' -> m' != m) m.st.armed

(* A member's check raised. On a hook, the fault is contained exactly
   as the hook contains its own listeners' — counted, traced, and the
   member quarantined after [max_strikes]; the members after it still
   check. On a watch or a timer it propagates to the save or the sim
   event that fired the group, as a lone watcher's or timer's would. *)
let fault t g m exn bt =
  match g.hook with
  | Some hook ->
    m.strikes <- m.strikes + 1;
    if Gr_kernel.Hooks.contain t.kernel.hooks hook ~listener:m.listener ~strikes:m.strikes exn then
      leave t m
  | None ->
    t.cascade_depth <- t.cascade_depth - 1;
    Printexc.raise_with_backtrace exn bt

(* One firing of the group's trigger: every member still in service
   checks, in install order, under one cascade-depth step. The frame
   starts a new epoch here and after any member's actions or fault. *)
let dispatch t g =
  let members = g.members and len = g.len in
  if t.cascade_depth >= t.config.max_cascade_depth then
    for i = 0 to len - 1 do
      let m = members.(i) in
      if m.serving then m.st.cascade_drops <- m.st.cascade_drops + 1
    done
  else begin
    t.cascade_depth <- t.cascade_depth + 1;
    invalidate g;
    for i = 0 to len - 1 do
      let m = members.(i) in
      if m.serving then
        match check t ~via:g.via m with
        | false -> ()
        | true -> invalidate g
        | exception exn ->
          let bt = Printexc.get_raw_backtrace () in
          invalidate g;
          fault t g m exn bt
    done;
    t.cascade_depth <- t.cascade_depth - 1
  end

(* A JIT group compiles the rule into its prologue; a tree group's
   members interpret it, reading the store themselves. *)
let add_member st g ~listener =
  let program = st.monitor.Monitor.rule in
  let rule =
    match g.frame with
    | Some f ->
      Jit (Jit.member f ~slots:st.monitor.Monitor.slots program)
    | None ->
      let out = { Vm.value = 0.; cost_ns = 0. } in
      Tree { program; static_cost_ns = Vm.static_cost_ns program; out }
  in
  let m = { st; rule; group = g; listener; strikes = 0; serving = true } in
  if g.len = Array.length g.members then begin
    let bigger = Array.make (max 4 (2 * g.len)) m in
    Array.blit g.members 0 bigger 0 g.len;
    g.members <- bigger
  end;
  g.members.(g.len) <- m;
  g.len <- g.len + 1;
  st.armed <- st.armed @ [ m ]

let new_group t ~via ~hook =
  {
    via;
    frame = (match t.tier with Vm.Jit -> Some (Jit.group t.store) | Vm.Tree -> None);
    hook;
    members = [||];
    len = 0;
    extend = (fun () -> None);
    disarm = ignore;
  }

(* A FUNCTION or ON_CHANGE trigger joins the open group of its hook or
   key when that group's subscription or watch is still the last one
   there, so the member checks exactly where a subscription of its own
   would; otherwise [arm] subscribes a new group, answering the first
   member's listener id. *)
let join t st ~via ~hook arm =
  let joined =
    match Hashtbl.find_opt t.open_groups via with
    | Some g -> (
      match g.extend () with
      | Some listener ->
        add_member st g ~listener;
        true
      | None -> false)
    | _ -> false
  in
  if not joined then begin
    let g = new_group t ~via ~hook in
    add_member st g ~listener:(arm g);
    Hashtbl.replace t.open_groups via g
  end

(* ON_CHANGE watches the key's store entry, so a save wakes exactly the
   groups of its own key; on a fleet node a global key's entry is the
   tier's, which every member's save reaches. A TIMER trigger is a
   group of one with its own periodic sim event. *)
let arm_trigger t st (trigger : Monitor.trigger) =
  match trigger with
  | Monitor.Timer { start_ns; interval_ns; stop_ns } ->
    let g = new_group t ~via:"timer" ~hook:None in
    add_member st g ~listener:(-1);
    let handle =
      Gr_sim.Engine.every t.kernel.engine
        ~start:(Time_ns.max start_ns (Gr_kernel.Kernel.now t.kernel))
        ?stop:stop_ns ~interval:interval_ns
        (fun _ -> dispatch t g)
    in
    g.disarm <- (fun () -> Gr_sim.Engine.cancel handle)
  | Monitor.Function hook ->
    let hooks = t.kernel.hooks in
    join t st ~via:("function:" ^ hook) ~hook:(Some hook) (fun g ->
        let sub = Gr_kernel.Hooks.subscribe hooks hook (fun _args -> dispatch t g) in
        g.extend <- (fun () -> Gr_kernel.Hooks.extend hooks sub);
        g.disarm <- (fun () -> Gr_kernel.Hooks.unsubscribe hooks sub);
        Gr_kernel.Hooks.listener_id sub)
  | Monitor.On_change key ->
    join t st ~via:("on_change:" ^ key) ~hook:None (fun g ->
        let w = Feature_store.watch t.store key (fun _value -> dispatch t g) in
        g.extend <- (fun () -> if Feature_store.last_watch w then Some (-1) else None);
        g.disarm <- (fun () -> Feature_store.unwatch w);
        -1)

let build_exec t ~slots program =
  match t.tier with
  | Vm.Tree ->
    let static_cost_ns = Vm.static_cost_ns program in
    fun () -> Vm.run ~static_cost_ns ~store:t.store ~slots program
  | Vm.Jit ->
    let j = Jit.compile ~store:t.store ~slots program in
    fun () -> Jit.run j

let install ?version t monitor =
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
    let slots = monitor.Monitor.slots in
    let st =
      {
        monitor;
        id = t.next_id;
        version;
        tier = t.tier;
        metrics = Metrics.register (Tracer.metrics t.tracer) monitor.Monitor.name;
        actions_costed =
          List.map
            (fun (action : Monitor.action) ->
              match action with
              | Monitor.Save { key; value } ->
                ( action,
                  Some
                    {
                      run = build_exec t ~slots value;
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
        armed = [];
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
    List.iter (leave t) st.armed;
    (* Release this monitor's demand references; shapes shared with
       still-installed monitors keep streaming. *)
    List.iter
      (fun (d : Gr_compiler.Deps.agg_demand) ->
        Feature_store.release_demand t.store ~key:d.key ~fn:d.fn ~window_ns:d.window_ns
          ~param:d.param)
      st.demands;
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
let tier (st : state) = st.tier
let set_deprioritize_handler t handler = t.deprioritize <- Some handler
let set_kill_handler t handler = t.kill <- Some handler
let tracer t = t.tracer
let metrics t = Tracer.metrics t.tracer

(* A check outside any trigger, through the monitor's first member
   still in service: a fresh frame epoch, then the one check, under its
   own cascade-depth step. The group's next dispatch starts a fresh
   epoch anyway, so actions here need no refresh. A monitor with no
   member in service (uninstalled, or every trigger quarantined) is not
   checked. *)
let check_now t st =
  let before = st.metrics.violations in
  (match st.armed with
  | m :: _ ->
    if t.cascade_depth >= t.config.max_cascade_depth then
      st.cascade_drops <- st.cascade_drops + 1
    else begin
      t.cascade_depth <- t.cascade_depth + 1;
      invalidate m.group;
      match check t ~via:"manual" m with
      | (_ : bool) -> t.cascade_depth <- t.cascade_depth - 1
      | exception exn ->
        let bt = Printexc.get_raw_backtrace () in
        t.cascade_depth <- t.cascade_depth - 1;
        Printexc.raise_with_backtrace exn bt
    end
  | _ -> ());
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
