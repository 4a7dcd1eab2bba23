(** Per-monitor telemetry registry.

    One record per installed monitor, updated on every rule check and
    action firing by the runtime engine: check/violation/firing
    counts, cumulative estimated VM cost, instruction and
    sample-scan totals, and a check-latency distribution tracked two
    ways on {!Gr_util.Stats} primitives — a Welford summary
    (mean/min/max) and streaming P² estimators for p50/p90/p99. All
    state is O(1) per monitor, matching the in-kernel-budget
    constraint (§4.1): nothing here stores per-check samples.

    This registry is what replaces the engine's aggregate
    [overhead_ns] as the source for per-monitor overhead attribution
    in the benchmarks. *)

type monitor = {
  name : string;
  mutable checks : int;
  mutable violations : int;
  mutable fires : int;  (** action firings *)
  mutable vm_cost_ns : float;  (** cumulative estimated VM cost *)
  mutable vm_insts : int;
  mutable samples_scanned : int;
  latency : Gr_util.Stats.Welford.t;  (** per-check estimated cost (ns) *)
  latency_p50 : Gr_util.Stats.P2.t;
  latency_p90 : Gr_util.Stats.P2.t;
  latency_p99 : Gr_util.Stats.P2.t;
}

type t

val create : unit -> t

val for_node : int -> t
(** A registry for one fleet node. *)

val node_id : t -> int option
(** Fleet provenance: which node this registry belongs to. [None]
    (the default, and the only value in single-node deployments)
    leaves {!to_json} output exactly as before. *)

val monitor : t -> string -> monitor
(** Find-or-create by monitor name. *)

val find : t -> string -> monitor option
val monitors : t -> monitor list
(** Sorted by name. *)

val record_check : monitor -> cost_ns:float -> insts:int -> samples:int -> violated:bool -> unit
val record_fire : monitor -> unit
val record_action_cost : monitor -> cost_ns:float -> unit
(** Extra VM cost outside the rule itself (SAVE value programs). *)

val latency_quantile : monitor -> float -> float
(** p50/p90/p99 from the exact-ish P² estimators; [nan] before the
    first check.
    @raise Invalid_argument for any other [q]. *)

val to_json : t -> Json.t
(** [{"monitors":[{name, checks, violations, fires, vm_cost_ns, ...,
    latency_ns:{mean,min,max,p50,p90,p99}}]}]. Field order is fixed,
    so the output is deterministic. When a node id is set, a leading
    ["node"] field identifies the shard. *)

val openmetrics_into : Buffer.t -> t list -> unit
(** Append the per-monitor OpenMetrics families (counters plus the
    check-latency summary) for the given registries — one registry
    per deployment; a fleet passes control plus every node. Each
    series carries a [monitor] label and, on node-tagged registries,
    a [node] label. With more than one registry, every counter family
    also emits merged rollup rows labelled [scope="fleet"] — summed
    across nodes — so fleet dashboards get one series per monitor
    without re-aggregation. No trailing [# EOF]: {!Export} composes
    further families on top. *)

val to_openmetrics : t list -> string
(** {!openmetrics_into} terminated with [# EOF\n] — a complete
    OpenMetrics text exposition. *)

val pp : Format.formatter -> t -> unit
(** Summary table, one row per monitor. *)
