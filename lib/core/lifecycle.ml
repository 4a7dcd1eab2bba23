(* The versioned spec lifecycle: a hot-swappable registry with gated,
   canaried rollout — the state machine under grc serve.

   Until now a spec was process configuration: compiled once at
   startup, installed, never revisited. This module turns it into a
   versioned object with a lifecycle:

     push --admit--> staged --barrier--> canarying --N clean--> active
            \                                \
             reject                           rollback (old version
                                              untouched, new handles
                                              uninstalled)

   Decisions happen only at epoch barriers (Fleet.add_barrier_hook /
   Gr_sim.Engine.run_chunked), when node phases are parked and the
   control engine is quiescent between events — so an install or
   uninstall never races a check, and a single deployment's chunked
   run stays bit-identical to the unchunked one.

   Invariants the machine maintains:
   - At most one rollout in flight: a push while another version is
     staged or canarying is rejected ("serialized, loser rejected").
   - The previous active version keeps running untouched through the
     whole canary window. Rollback just uninstalls the canary's
     handles — the old version never stopped, so restoration is
     bit-identical by construction.
   - Demand-refcount handoff: the new version installs BEFORE the old
     uninstalls (promote), so streaming-aggregate shapes shared
     between versions never drop to refcount 0 and lose their window
     state. The engine's exactly-once release does the rest.
   - Every transition is recorded in the audit sink as a cat:"audit"
     trace event whose span/parent args chain push -> admit ->
     canary -> verdict -> promote/rollback, so Provenance (grc
     explain) replays the decision. *)

open Gr_util
module Engine = Gr_runtime.Engine
module Store = Gr_runtime.Feature_store
module Monitor = Gr_compiler.Monitor
module Event = Gr_trace.Event

type target = Deployment of Deployment.t | Fleet of Fleet.t

type config = {
  canary_nodes : int;
  canary_barriers : int;
  max_fire_rate : float;
  admission : Gr_analysis.Audit.config;
}

let default_config =
  {
    canary_nodes = 1;
    canary_barriers = 3;
    max_fire_rate = 5.;
    admission = Gr_analysis.Audit.default_config;
  }

type status = Staged | Canarying | Active | Superseded | Rolled_back | Rejected

let status_name = function
  | Staged -> "staged"
  | Canarying -> "canarying"
  | Active -> "active"
  | Superseded -> "superseded"
  | Rolled_back -> "rolled-back"
  | Rejected -> "rejected"

type version = {
  id : int;
  who : string;
  digest : string;
  source : string;
  pushed_at : Time_ns.t;
  mutable status : status;
  mutable handles : Engine.handle list;  (** installed monitors; [] once off the engine *)
  mutable admit_span : int;  (** audit-chain anchor for rollout events *)
}

type rollout = {
  v : version;
  monitors : Monitor.t list;
  canary_ids : int list;  (** node subset the canary REPLACEs target; [] = whole target *)
  policies : string list;  (** policies the version acts on (canaried during rollout) *)
  mutable started : Time_ns.t;
  mutable canary_span : int;
  mutable last_verdict_span : int;
  mutable clean_barriers : int;
  mutable fires_seen : int;  (** firings already judged at earlier barriers *)
}

type phase = Steady | Pending of rollout | Rolling of rollout

type decision =
  | Admitted of { version : int }
  | Rejected of {
      version : int;
      reason : string;
      diagnostics : Gr_analysis.Diagnostic.t list;
    }

type t = {
  target : target;
  config : config;
  audit : Event.t -> unit;
  mutable next_version : int;
  mutable next_span : int;
  mutable active : version option;
  mutable phase : phase;
  mutable history_rev : version list;
  mutable promotions : int;
  mutable rollbacks : int;
  mutable barriers : int;
}

let rec create ?(config = default_config) ?(audit = fun (_ : Event.t) -> ()) target =
  let t =
    {
      target;
      config;
      audit;
      next_version = 1;
      next_span = 1;
      active = None;
      phase = Steady;
      history_rev = [];
      promotions = 0;
      rollbacks = 0;
      barriers = 0;
    }
  in
  (match target with
  | Fleet fleet -> Fleet.add_barrier_hook fleet (fun ts -> barrier t ts)
  | Deployment _ -> ());
  t

and now t =
  match t.target with
  | Deployment d -> Gr_kernel.Kernel.now (Deployment.kernel d)
  | Fleet f -> Gr_sim.Engine.now (Fleet.sim f)

(* Audit events: cat "audit", Instant, own span-id space (the log is
   a separate file; ids only need to be unique and deterministic
   within it). Returns the event's span so follow-ups can chain. *)
and emit t ?parent name args =
  let span = t.next_span in
  t.next_span <- span + 1;
  let args =
    args
    @ [ ("span", Event.Int span) ]
    @ match parent with None -> [] | Some p -> [ ("parent", Event.Int p) ]
  in
  t.audit (Event.make ~ts:(now t) ~args ~cat:"audit" ~ph:Event.Instant name);
  span

and engine t = Deployment.engine (control t)

and control t = match t.target with Deployment d -> d | Fleet f -> Fleet.control f

and store t = Deployment.store (control t)

and fresh_version t ~who ~source =
  let id = t.next_version in
  t.next_version <- id + 1;
  let v =
    {
      id;
      who;
      digest = Gr_compiler.Compile.digest source;
      source;
      pushed_at = now t;
      status = Staged;
      handles = [];
      admit_span = 0;
    }
  in
  t.history_rev <- v :: t.history_rev;
  v

and policies_of monitors =
  List.sort_uniq compare
    (List.concat_map
       (fun (m : Monitor.t) ->
         List.filter_map
           (function
             | Monitor.Replace name | Monitor.Restore name | Monitor.Retrain name ->
               Some name
             | Monitor.Report _ | Monitor.Deprioritize _ | Monitor.Kill _ | Monitor.Save _
               ->
               None)
           m.actions)
       monitors)

and install_version t v monitors =
  match t.target with
  | Deployment d -> Deployment.install_monitors ~version:v.id d monitors
  | Fleet f -> Fleet.install_monitors ~version:v.id f monitors

and uninstall_handles t handles =
  List.iter
    (fun h ->
      match t.target with
      | Deployment d -> Deployment.uninstall d h
      | Fleet f -> Fleet.uninstall f h)
    handles

(* ---- boot: version 1, installed directly (no canary window: there
   is nothing to fall back to yet). The boot spec is the operator's
   own file, vetted like any grc run spec; admission gates *pushes*,
   where a live system is at stake. *)

and boot t ~who source =
  match Gr_compiler.Compile.source source with
  | Error e -> Error (Deployment.Compile e)
  | Ok monitors -> (
    let v = fresh_version t ~who ~source in
    match install_version t v monitors with
    | Error e ->
      v.status <- Rejected;
      Error e
    | Ok handles ->
      v.handles <- handles;
      v.status <- Active;
      t.active <- Some v;
      v.admit_span <-
        emit t "spec.boot"
          [
            ("version", Event.Int v.id);
            ("who", Event.Str who);
            ("digest", Event.Str v.digest);
            ("monitors", Event.Int (List.length monitors));
          ];
      Ok handles)

(* ---- push: admission now, install at the next barrier. *)

and push t ~who source =
  let v = fresh_version t ~who ~source in
  let push_span =
    emit t "spec.push"
      [
        ("version", Event.Int v.id);
        ("who", Event.Str who);
        ("digest", Event.Str v.digest);
        ("bytes", Event.Int (String.length source));
      ]
  in
  let reject reason diagnostics =
    v.status <- Rejected;
    ignore
      (emit t ~parent:push_span "spec.reject"
         [
           ("version", Event.Int v.id);
           ("reason", Event.Str reason);
           ("diagnostics", Event.Int (List.length diagnostics));
           ( "codes",
             Event.Str
               (String.concat ";"
                  (List.map (fun d -> d.Gr_analysis.Diagnostic.code) diagnostics)) );
         ]
        : int);
    Rejected { version = v.id; reason; diagnostics }
  in
  match t.phase with
  | Pending r | Rolling r ->
    (* Serialization point: one rollout in flight, the loser loses. *)
    reject
      (Printf.sprintf "rollout of v%d (%s) in progress" r.v.id (status_name r.v.status))
      []
  | Steady -> (
    let adm = Gr_analysis.Audit.admit ~config:t.config.admission source in
    match adm with
    | { admitted = false; reason; diagnostics; _ } ->
      reject (Option.value ~default:"rejected by static analysis" reason) diagnostics
    | { monitors; _ } ->
      v.admit_span <-
        emit t ~parent:push_span "spec.admit"
          [ ("version", Event.Int v.id); ("monitors", Event.Int (List.length monitors)) ];
      let canary_ids =
        match t.target with
        | Deployment _ -> []
        | Fleet f ->
          let n = Fleet.node_count f in
          if n <= 1 then []
          else List.init (min (max 1 t.config.canary_nodes) (n - 1)) Fun.id
      in
      t.phase <-
        Pending
          {
            v;
            monitors;
            canary_ids;
            policies = policies_of monitors;
            started = now t;
            canary_span = 0;
            last_verdict_span = 0;
            clean_barriers = 0;
            fires_seen = 0;
          };
      Admitted { version = v.id })

(* ---- the barrier: install staged versions, judge canaries. *)

and set_canaries t r =
  match (t.target, r.canary_ids) with
  | Deployment _, _ | _, [] -> ()
  | Fleet f, ids -> List.iter (fun p -> Fleet.set_canary f ~policy:p ids) r.policies

and clear_canaries t r =
  match t.target with
  | Deployment _ -> ()
  | Fleet f -> List.iter (fun p -> Fleet.clear_canary f ~policy:p) r.policies

and install_staged t r =
  match install_version t r.v r.monitors with
  | Error e ->
    (* The verifier is stricter than static analysis only in
       pathological cases, but the engine is the trust boundary:
       an install-time rejection is a reject like any other. *)
    r.v.status <- Rejected;
    t.phase <- Steady;
    ignore
      (emit t ~parent:r.v.admit_span "spec.reject"
         [
           ("version", Event.Int r.v.id);
           ("reason", Event.Str (Format.asprintf "install failed: %a" Deployment.pp_error e));
           ("diagnostics", Event.Int 0);
           ("codes", Event.Str "");
         ]
        : int)
  | Ok handles ->
    r.v.handles <- handles;
    r.v.status <- Canarying;
    r.started <- now t;
    set_canaries t r;
    r.canary_span <-
      emit t ~parent:r.v.admit_span "rollout.canary"
        [
          ("version", Event.Int r.v.id);
          ( "nodes",
            Event.Str
              (match r.canary_ids with
              | [] -> "all"
              | ids -> String.concat ";" (List.map string_of_int ids)) );
          ("policies", Event.Str (String.concat ";" r.policies));
          ("monitors", Event.Int (List.length handles));
        ];
    t.phase <- Rolling r

and judge t r ts =
  let stats = List.map (fun h -> Engine.Stats.get (engine t) h) r.v.handles in
  let fires =
    List.fold_left (fun acc (s : Engine.Stats.s) -> acc + s.action_firings) 0 stats
  in
  let oscillations =
    List.fold_left (fun acc (s : Engine.Stats.s) -> acc + s.oscillation_alerts) 0 stats
  in
  let elapsed = Time_ns.to_float_sec ts -. Time_ns.to_float_sec r.started in
  let rate = if elapsed > 0. then float_of_int fires /. elapsed else 0. in
  let why =
    if oscillations > 0 then
      Some (Printf.sprintf "oscillation alert on canary (%d alert(s))" oscillations)
    else if rate > t.config.max_fire_rate then
      Some
        (Printf.sprintf "canary fire rate %.1f/s exceeds guardrail %.1f/s" rate
           t.config.max_fire_rate)
    else None
  in
  r.last_verdict_span <-
    emit t ~parent:r.canary_span "rollout.verdict"
      [
        ("version", Event.Int r.v.id);
        ("clean", Event.Bool (why = None));
        ("fires", Event.Int fires);
        ("rate", Event.Float rate);
        ("oscillations", Event.Int oscillations);
        ("demands", Event.Int (Store.demand_count (store t)));
      ];
  r.fires_seen <- fires;
  match why with
  | Some reason ->
    (* Rollback: the canary comes off the engine, the previous active
       version — which never stopped running — simply continues.
       Uninstall releases the canary's demand refcounts exactly once;
       shapes shared with the active version keep streaming. *)
    uninstall_handles t r.v.handles;
    r.v.handles <- [];
    r.v.status <- Rolled_back;
    clear_canaries t r;
    t.phase <- Steady;
    t.rollbacks <- t.rollbacks + 1;
    ignore
      (emit t ~parent:r.last_verdict_span "rollout.rollback"
         [
           ("version", Event.Int r.v.id);
           ("reason", Event.Str reason);
           ( "restored",
             Event.Int (match t.active with Some v -> v.id | None -> 0) );
           ("demands", Event.Int (Store.demand_count (store t)));
         ]
        : int)
  | None ->
    r.clean_barriers <- r.clean_barriers + 1;
    if r.clean_barriers >= t.config.canary_barriers then begin
      (* Promote: handoff order is install-new (already done at canary
         start) then uninstall-old — shared streaming aggregates never
         hit refcount 0, so their window state survives the swap. *)
      let old = t.active in
      (match old with
      | Some o ->
        uninstall_handles t o.handles;
        o.handles <- [];
        o.status <- Superseded
      | None -> ());
      clear_canaries t r;
      r.v.status <- Active;
      t.active <- Some r.v;
      t.phase <- Steady;
      t.promotions <- t.promotions + 1;
      ignore
        (emit t ~parent:r.canary_span "rollout.promote"
           [
             ("version", Event.Int r.v.id);
             ("supersedes", Event.Int (match old with Some o -> o.id | None -> 0));
             ("clean_barriers", Event.Int r.clean_barriers);
             ("demands", Event.Int (Store.demand_count (store t)));
           ]
          : int)
    end

and barrier t ts =
  t.barriers <- t.barriers + 1;
  match t.phase with
  | Steady -> ()
  | Pending r -> install_staged t r
  | Rolling r -> judge t r ts

(* ---- driving the target: one drive to now + epochs * epoch. A
   fleet fires its registered barrier hook at every boundary of
   run_until on one pool; a single deployment drives the same barrier
   through run_chunked, whose event stream is byte-identical to an
   unchunked run. *)

let advance t ~epochs =
  if epochs > 0 then
    match t.target with
    | Fleet f ->
      Fleet.run_until f
        (Time_ns.add (Gr_sim.Engine.now (Fleet.sim f)) (epochs * Fleet.epoch f))
    | Deployment d ->
      let sim = (Deployment.kernel d).Gr_kernel.Kernel.engine in
      let epoch = Fleet.default_epoch in
      Gr_sim.Engine.run_chunked sim ~epoch
        ~limit:(Time_ns.add (Gr_sim.Engine.now sim) (epochs * epoch))
        ~at_barrier:(barrier t)

let tracers t =
  match t.target with Deployment d -> [ Deployment.tracer d ] | Fleet f -> Fleet.tracers f

(* ---- introspection *)

let active t = t.active
let phase t = t.phase
let history t = List.rev t.history_rev
let promotions t = t.promotions
let rollbacks t = t.rollbacks
let barriers_seen t = t.barriers
let version_count t = List.length t.history_rev

let find_version t id = List.find_opt (fun v -> v.id = id) t.history_rev

let phase_name t =
  match t.phase with
  | Steady -> "steady"
  | Pending r -> Printf.sprintf "staged:v%d" r.v.id
  | Rolling r -> Printf.sprintf "canarying:v%d(%d/%d)" r.v.id r.clean_barriers
                   t.config.canary_barriers

let pp_status fmt t =
  Format.fprintf fmt "phase %s; %d version(s), %d promotion(s), %d rollback(s)"
    (phase_name t) (version_count t) t.promotions t.rollbacks;
  match t.active with
  | Some v -> Format.fprintf fmt "; active v%d (%s, by %s)" v.id v.digest v.who
  | None -> Format.fprintf fmt "; no active version"
