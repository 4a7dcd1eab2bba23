(* What one repetition of a workload measured, and what its
   correctness gate found. Counters cover the timed phase; the push
   figures come from the scripted push session. *)

module Store = Gr_runtime.Feature_store
module Engine = Gr_runtime.Engine

type t = {
  setup_ns : int;  (** rig build, compile and install, boot *)
  wall_ns : int;  (** the timed phase *)
  sim_ns : int;  (** simulated span of the timed phase *)
  saves : int;
  loads : int;
  agg_hits : int;
  agg_misses : int;
  expired : int;
  events : int;
  hook_fires : int;
  checks : int;
  firings : int;
  est_work_ns : float;
  reports : int;  (** REPORTs over the whole repetition *)
  jit_monitors : int;
  reg_monitors : int;
  gc_minor : int;
  gc_major : int;
  gc_promoted : float;
  train_ns : int;
  compile_ns : int;
  install_ns : int;
  monitors : int;
  client : Client.summary;
  barrier_ns : int;  (** inside Lifecycle barriers *)
  epoch_ms : float list;  (** host time of each epoch of the push session *)
  fanouts : int;
  fanout_ns : int;
  ledger : (Probes.t -> (string * float) list) option;
      (** layer self-times in ns, from a traced repetition *)
  checked : int;  (** correctness checks made, pushes included *)
  failures : string list;
}

(* Appends the "unattributed" row that closes a ledger's sum to the
   timed-phase wall. *)
let close ~wall_ns rows =
  rows @ [ ("unattributed", float_of_int wall_ns -. List.fold_left (fun a (_, v) -> a +. v) 0. rows) ]

type counts = { n_saves : int; n_loads : int; n_hits : int; n_misses : int; n_expired : int }

let counts stores =
  List.fold_left
    (fun c s ->
      {
        n_saves = c.n_saves + Store.save_count s;
        n_loads = c.n_loads + Store.load_count s;
        n_hits = c.n_hits + Store.agg_hit_count s;
        n_misses = c.n_misses + Store.agg_miss_count s;
        n_expired = c.n_expired + Store.expired_count s;
      })
    { n_saves = 0; n_loads = 0; n_hits = 0; n_misses = 0; n_expired = 0 }
    stores

let counts_since c0 stores =
  let c = counts stores in
  {
    n_saves = c.n_saves - c0.n_saves;
    n_loads = c.n_loads - c0.n_loads;
    n_hits = c.n_hits - c0.n_hits;
    n_misses = c.n_misses - c0.n_misses;
    n_expired = c.n_expired - c0.n_expired;
  }

(* Checks, action firings and estimated check work of every monitor the
   engine ever ran: the metrics registry keeps uninstalled monitors'
   records too. *)
let engine_totals engine =
  List.fold_left
    (fun (c, f, w) (m : Gr_trace.Metrics.monitor) -> (c + m.checks, f + m.fires, w +. m.vm_cost_ns))
    (0, 0, 0.)
    (Gr_trace.Metrics.monitors (Engine.metrics engine))

let tiers handles =
  Array.fold_left
    (fun (jit, reg) h ->
      match Gr_runtime.Vm.tier_to_string (Engine.tier h) with
      | "jit" -> (jit + 1, reg)
      | "reg" -> (jit, reg + 1)
      | _ -> (jit, reg))
    (0, 0) handles

let installed = function
  | Ok handles -> handles
  | Error e -> failwith (Format.asprintf "install failed: %a" Guardrails.Deployment.pp_error e)

(* The gate: each (what, got, want) that differs is one failed check. *)
let gate expectations =
  ( List.length expectations,
    List.filter_map
      (fun (what, got, want) ->
        if got = want then None else Some (Printf.sprintf "%s: got %d, expected %d" what got want))
      expectations )
