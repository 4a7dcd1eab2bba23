(** Per-monitor telemetry registry.

    Each installed monitor owns one {!account}, registered at install
    and updated by the runtime engine on every rule check and action
    firing: check/violation/firing counts, instruction and
    sample-scan totals, and the estimated VM cost (rule plus actions,
    and rule alone, with its min and max). The float fields sit in a
    float-only record, so an update allocates nothing. The account is
    the only per-check counter: the engine's per-handle statistics
    read from it too. All state is O(1) per monitor, matching the
    in-kernel-budget constraint (§4.1): nothing here stores per-check
    samples.

    Per name, the registry keeps the live accounts plus one retired
    total, so a monitor name reinstalled across push/rollback cycles
    costs O(1), and a canary installed beside the version it replaces
    is reported under their shared name as the sum of both. *)

type cost = private {
  mutable vm_ns : float;  (** estimated VM cost of rules and actions *)
  mutable check_ns : float;  (** estimated VM cost of rules alone *)
  mutable min_ns : float;  (** cheapest check; [infinity] before the first *)
  mutable max_ns : float;  (** dearest check; [neg_infinity] before the first *)
}

type check_out = { mutable value : float; mutable cost_ns : float }
(** A check as its executor leaves it: the rule's value and estimated
    cost, written in place. A float-only record, so passing one boxes
    neither float. *)

type account = private {
  name : string;
  mutable checks : int;
  mutable violations : int;
  mutable fires : int;  (** action firings *)
  mutable vm_insts : int;
  mutable samples_scanned : int;
  cost : cost;
}

type monitor = {
  name : string;
  checks : int;
  violations : int;
  fires : int;
  vm_cost_ns : float;  (** cumulative estimated VM cost, rules and actions *)
  check_cost_ns : float;  (** cumulative estimated VM cost of the rules *)
  min_ns : float;
  max_ns : float;
  vm_insts : int;
  samples_scanned : int;
}
(** An immutable per-name row: the retired total plus every live
    account of that name. *)

type t

val create : unit -> t

val for_node : int -> t
(** A registry for one fleet node: {!to_json} leads with a ["node"]
    field and OpenMetrics rows carry a [node] label. *)

val register : t -> string -> account
(** A fresh, zeroed account listed under the name. *)

val retire : t -> account -> unit
(** Fold the account into its name's retired total and unlist it.
    The account itself stays readable. Idempotent. *)

val monitor : t -> string -> account
(** Find-or-register by name: the first live account of that name, or
    a new one. *)

val monitors : t -> monitor list
(** One row per name, sorted by name. *)

val live_accounts : t -> int
(** Accounts registered and not yet retired. *)

val record_check : account -> cost_ns:float -> insts:int -> samples:int -> violated:bool -> unit
(** Counts one check of the given estimated cost. A caller that just
    computed the float boxes it for the call, unless the call is
    inlined. *)

val record_check_out : account -> check_out -> insts:int -> samples:int -> violated:bool -> unit
(** {!record_check} with the cost read from the executor's record, so
    the call boxes nothing; the record's [value] is not read. *)

val record_fire : account -> unit
val record_action_cost : account -> cost_ns:float -> unit
(** Extra VM cost outside the rule itself (SAVE value programs). *)

val to_json : t -> Json.t
(** [{"monitors":[{name, checks, violations, fires, vm_cost_ns, ...,
    latency_ns:{mean,min,max}}]}], where [mean] is the rules' cost over
    [checks]. Field order is fixed, so the output is deterministic.
    When a node id is set, a leading ["node"] field identifies the
    shard. *)

val openmetrics_into : Buffer.t -> t list -> unit
(** Append the per-monitor OpenMetrics families (counters plus the
    check-cost summary's [_count] and [_sum]) for the given registries
    — one registry per deployment; a fleet passes control plus every
    node. Each series carries a [monitor] label and, on node-tagged
    registries, a [node] label. With more than one registry, every
    counter family also emits merged rollup rows labelled
    [scope="fleet"] — summed across nodes — so fleet dashboards get
    one series per monitor without re-aggregation. No trailing
    [# EOF]: {!Export} composes further families on top. *)

val pp : Format.formatter -> t -> unit
(** Summary table, one row per monitor name. *)
