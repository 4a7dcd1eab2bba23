(** Block layer with flash-RAID failover.

    This is the LinnOS deployment scenario from §5 of the paper.
    Reads target a primary device. The storage cluster has built-in
    failover: the baseline policy issues to the primary and, if the
    I/O has not completed after a hedge timeout, revokes it and
    reissues to a replica (paying the timeout plus a revocation
    overhead). A learned policy instead predicts up front:

    - predicted {e slow} — revoke immediately and serve from the
      replica (saving the timeout wait);
    - predicted {e fast} — trust the primary with {e no} hedge
      (saving the duplicate I/O).

    The gamble in the second case is the {e false submit}: an I/O
    predicted fast that the primary then serves slowly waits out the
    full device latency with no failover — the misprediction whose
    rate Figure 2's guardrail bounds. A {e false revoke} is a wasted
    reissue (the primary would have been fast).

    For decision-quality (P4) guardrails the block layer also
    publishes a per-I/O {e counterfactual hedge latency}: what the
    baseline policy would have paid for the same I/O, computed from
    the primary's ground-truth latency and the replica's recent
    service times. Comparing the served latency's window average to
    the counterfactual's gives a shadow-baseline quality signal
    without running a second cluster.

    Hook points fired (scalar args):
    - ["blk:io_submit"]   — [dev], [decision] (0 hedge / 1 trust / 2 revoke)
    - ["blk:io_complete"] — [latency_us], [dev], [redirected],
                            [false_submit], [false_revoke], [hedged],
                            [hedge_counterfactual_us] *)

type decision =
  | Hedge of Gr_util.Time_ns.t
      (** Submit to primary; revoke to the replica if not complete
          after the given timeout. The safe default. *)
  | Trust_primary  (** Submit to primary with no failover. *)
  | Revoke_now  (** Reissue to the replica immediately. *)

type policy = {
  policy_name : string;
  decide : float array -> decision;
      (** [decide features] with the features of {!features}. *)
}

val slow_threshold_us : float
(** Ground-truth "slow": a primary latency above 300us. *)

val hedge_timeout : Gr_util.Time_ns.t
(** The baseline's hedge timeout: {!slow_threshold_us}. *)

val feature_history : int
(** Recent primary service latencies in a feature vector: 4. *)

val hedge_policy : unit -> policy
(** Baseline flash-RAID failover: always [Hedge hedge_timeout]. *)

type io_result = {
  submitted_at : Gr_util.Time_ns.t;
  latency : Gr_util.Time_ns.t;  (** end-to-end, incl. hedge/revoke costs *)
  served_by : int;  (** device index that finally served the I/O *)
  redirected : bool;  (** served by the replica *)
  decision : decision;
  primary_was_slow : bool;  (** ground truth for the primary *)
}

type t

val create :
  engine:Gr_sim.Engine.t ->
  hooks:Hooks.t ->
  devices:Ssd.t array ->
  unit ->
  t
(** Requires at least two devices. A revocation costs 15us on top of
    the replica's service time. *)

val slot : t -> policy Policy_slot.t
(** The submission-policy slot; the REPLACE action acts here. *)

val features : t -> primary:int -> float array
(** Feature vector for an I/O targeting [primary]: primary queue
    depth, replica queue depth, then {!feature_history} recent primary
    service latencies (us, oldest first). *)

val feature_dim : t -> int

val submit_read : t -> primary:int -> on_complete:(io_result -> unit) -> unit
(** Issues a read whose primary is device [primary mod n_devices]; the
    replica is the next device. Completion is delivered through the
    sim engine. *)

(** Running counters since creation. *)

val ios_completed : t -> int
val false_submits : t -> int
val false_revokes : t -> int
val redirects : t -> int
val hedge_fires : t -> int
(** Hedged submissions whose timeout actually expired. *)
