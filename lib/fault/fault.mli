(** Typed fault plans for deterministic chaos testing.

    A fault plan is a timestamped list of injected failures — the
    misbehaviours the guardrail stack exists to survive: device GC
    storms and deaths (the LinnOS regime shifts), listener exceptions
    at hook points (buggy instrumentation), feature-store eviction
    pressure and key corruption (NaN / adversarial magnitudes reaching
    the aggregation path), adversarial policy outputs (the
    {!Gr_policy.Inject} wrappers, generalised) and clock skew.

    Plans are plain data with an exact textual round-trip
    ({!plan_to_string} / {!plan_of_string}), so a failing soak run can
    print its minimal shrunk plan as a [grc soak --plan '...'] command
    line and the repro is the plan, not the process that found it.
    Generation ({!gen}) draws from an explicit {!Gr_util.Rng.t}: the
    same seed always yields the same plan. *)

type corruption =
  | Nan  (** poison with [Float.nan] *)
  | Huge  (** [1e14]: finite but far outside any legitimate signal *)
  | Neg_huge  (** [-1e14] *)
  | Value of float  (** a specific adversarial value *)

type chaos =
  | Stuck_trust  (** block policy that always trusts the primary *)
  | Stuck_revoke  (** block policy that always revokes *)
  | Flip  (** wrap the live policy, flipping half its decisions *)

type kind =
  | Gc_storm of { device : int; duration : Gr_util.Time_ns.t }
      (** Put the device in a near-continuous GC regime for
          [duration], then restore its original profile. *)
  | Device_death of { device : int; duration : Gr_util.Time_ns.t }
      (** Kill the device (2s command-timeout latencies) for
          [duration], then revive it. *)
  | Hook_exn of { hook : string; count : int }
      (** Subscribe a listener to [hook] that raises on its next
          [count] firings — exercising the kernel's listener
          containment and quarantine. *)
  | Evict_burst of { key : string; burst : int }
      (** Save [burst] samples to [key] back-to-back, forcing
          capacity eviction of the key's older samples out from under
          any registered streaming aggregates. *)
  | Corrupt_key of { key : string; corruption : corruption }
      (** Save one adversarial sample to [key]. *)
  | Policy_chaos of { chaos : chaos }
      (** Install an adversarial policy in the block layer's slot. *)
  | Clock_skew of { by : Gr_util.Time_ns.t }
      (** Jump the kernel-observed clock forward by [by] (an NTP
          step / VM migration pause); the event queue is unaffected. *)

type fault = { at : Gr_util.Time_ns.t; kind : kind }
type plan = fault list

val fault_to_string : fault -> string
(** E.g. ["gc-storm@150000000:dev=1,dur=50000000"]. Timestamps and
    durations are integer nanoseconds, so the round-trip is exact. *)

val plan_to_string : plan -> string
(** Faults joined with [';']. *)

val plan_of_string : string -> (plan, string) result
(** Inverse of {!plan_to_string}; the error is a one-line message
    naming the offending fragment. *)

(** {1 Generation} *)

type caps = {
  n_devices : int;  (** 0 disables storage faults *)
  keys : string list;  (** store keys eligible for eviction/corruption *)
  hooks : string list;  (** hook points eligible for listener faults *)
  blk_policy : bool;  (** whether a block-policy slot exists *)
}
(** What a scenario exposes for faulting; {!gen} only draws fault
    kinds the scenario can absorb. *)

val gen : rng:Gr_util.Rng.t -> caps:caps -> n:int -> horizon:Gr_util.Time_ns.t -> plan
(** [n] faults at times within [(horizon/20, 4*horizon/5)], sorted by
    time. Deterministic in the rng state. *)
