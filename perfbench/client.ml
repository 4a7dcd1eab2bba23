(* The scripted control-plane client every workload runs: it pushes
   specs to a Lifecycle (the state machine behind grc serve) at epoch
   barriers and times each push as a client waits for it.

   The script is a sequence of windows. A window opens at a barrier
   where no rollout is in flight, pushes three specs that lint rejects
   (GRL002, an always-false rule) and then one rollout: a promotable
   spec, or one that trips the canary fire-rate guardrail and is rolled
   back. One clean verdict promotes, so a rollout settles two barriers
   after its push and windows open every other barrier. The seed orders
   the rollouts and draws the promotable thresholds. *)

open Gr_util
module L = Guardrails.Lifecycle

type kind = Promote | Rollback | Lint_reject

let windows = 30
let rejects_per_window = 3
let pushes = windows * (rejects_per_window + 1)
let epoch = Guardrails.Fleet.default_epoch

(* Every window settles two barriers after it opens; the first opens
   at the first barrier. *)
let span = ((2 * windows) + 2) * epoch

(* The policy the rollout specs act on; workloads register it as a
   no-op on every kernel a canary can reach. *)
let policy = "serve_policy"

let config = { L.default_config with canary_barriers = 1 }

let promote_spec ~bound =
  Printf.sprintf
    {|guardrail serve-signal { trigger: { TIMER(0, 100ms) } rule: { AVG(serve_signal, 1s) <= %.3f } action: { REPORT("serve signal over bound", serve_signal) REPLACE("%s") } }|}
    bound policy

(* A 10ms timer on a key nothing feeds fires ~100/s on the canary, far
   over the 5/s rollout guardrail. *)
let rollback_spec =
  Printf.sprintf
    {|guardrail serve-heartbeat { trigger: { TIMER(0, 10ms) } rule: { COUNT(serve_heartbeat, 1s) >= 1 } action: { REPORT("no heartbeat", serve_heartbeat) REPLACE("%s") } }|}
    policy

let reject_spec =
  {|guardrail serve-impossible { trigger: { TIMER(0, 1s) } rule: { COUNT(serve_requests, 1s) < 0 } action: { REPORT("fires every check", serve_requests) } }|}

type push = { kind : kind; version : int; ns : int; decision : L.decision }

type t = {
  lc : L.t;
  rng : Rng.t;
  script : kind array;  (** the rollout of each window *)
  mutable window : int;
  mutable log : push list;  (** newest first *)
}

let source t = function
  | Promote -> promote_spec ~bound:(1000. +. Rng.float t.rng 1000.)
  | Rollback -> rollback_spec
  | Lint_reject -> reject_spec

(* Creates the lifecycle and boots version 1 (a promotable spec). *)
let create ~seed target =
  let rng = Specs.stream ~seed 5 in
  let script = Array.init windows (fun w -> if w < windows / 2 then Promote else Rollback) in
  Rng.shuffle rng script;
  let t = { lc = L.create ~config target; rng; script; window = 0; log = [] } in
  (match L.boot t.lc ~who:"perfbench" (source t Promote) with
  | Ok _ -> ()
  | Error e -> failwith (Format.asprintf "boot spec rejected: %a" Guardrails.Deployment.pp_error e));
  t

let lifecycle t = t.lc

let push t kind =
  let src = source t kind in
  let t0 = Clock.now_ns () in
  let decision = L.push t.lc ~who:"perfbench" src in
  let ns = Clock.now_ns () - t0 in
  let version = match decision with L.Admitted { version } | L.Rejected { version; _ } -> version in
  t.log <- { kind; version; ns; decision } :: t.log

(* Call after the lifecycle's own barrier decision. *)
let on_barrier t =
  match L.phase t.lc with
  | L.Steady when t.window < windows ->
    for _ = 1 to rejects_per_window do
      push t Lint_reject
    done;
    push t t.script.(t.window);
    t.window <- t.window + 1
  | L.Steady | L.Pending _ | L.Rolling _ -> ()

let scripted = function Promote -> 'P' | Rollback -> 'R' | Lint_reject -> 'L'

(* How a push ended: P promoted (active or since superseded), R rolled
   back, L rejected by lint with GRL002, x anything else. *)
let ended t p =
  match p.decision with
  | L.Rejected { diagnostics; _ } ->
    if List.exists (fun (d : Gr_analysis.Diagnostic.t) -> d.code = "GRL002") diagnostics then 'L'
    else 'x'
  | L.Admitted _ -> (
    match L.find_version t.lc p.version with
    | Some { L.status = L.Active | L.Superseded; _ } -> 'P'
    | Some { L.status = L.Rolled_back; _ } -> 'R'
    | Some _ | None -> 'x')

type summary = {
  push_ms : float list;
  kinds : kind list;
  promotions : int;
  rollbacks : int;
  rejections : int;
  decisions : string;  (** one {!ended} letter per push, in push order *)
  failures : string list;  (** pushes that did not end as scripted, or never ran *)
}

let summary t =
  let log = List.rev t.log in
  let missing = pushes - List.length log in
  {
    push_ms = List.map (fun p -> Clock.ms p.ns) log;
    kinds = List.map (fun p -> p.kind) log;
    promotions = L.promotions t.lc;
    rollbacks = L.rollbacks t.lc;
    rejections =
      List.length
        (List.filter (fun p -> match p.decision with L.Rejected _ -> true | L.Admitted _ -> false) log);
    decisions = String.of_seq (List.to_seq (List.map (ended t) log));
    failures =
      List.filter_map
        (fun (i, p) ->
          let got = ended t p in
          if got = scripted p.kind then None
          else Some (Printf.sprintf "push %d: scripted %c, ended %c" i (scripted p.kind) got))
        (List.mapi (fun i p -> (i, p)) log)
      @ List.init (max 0 missing) (fun i ->
            Printf.sprintf "scripted push %d never ran" (List.length log + i));
  }
