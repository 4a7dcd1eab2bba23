(** The simulated kernel: one virtual clock, one hook registry, one
    policy-control registry, one seeded random stream.

    Subsystems ({!Blk}, {!Sched}, {!Mm}, {!Cache}) are constructed on
    top of a kernel as an experiment needs them; this module only owns
    the shared spine so that guardrail monitors, workload generators
    and subsystems all observe the same time and hooks. *)

type t = {
  engine : Gr_sim.Engine.t;
  hooks : Hooks.t;
  registry : Policy_slot.Registry.t;
  rng : Gr_util.Rng.t;
  mutable skew : Gr_util.Time_ns.t;
      (** additive offset on the observed clock; see {!advance_clock_skew} *)
}

val create : seed:int -> t

val now : t -> Gr_util.Time_ns.t
(** The kernel-observed clock: the sim engine's virtual time plus the
    current skew. Everything layered on the kernel (feature-store
    timestamps, cooldown bookkeeping, trace timestamps) reads this;
    the event queue itself runs on the unskewed engine clock. *)

val advance_clock_skew : t -> by:Gr_util.Time_ns.t -> unit
(** Jumps the observed clock forward by [by] without firing any
    events — the fault model for clock skew (an NTP step, a VM
    migration pause). Forward-only, so store timestamps stay
    monotonic and windowed aggregates remain well-defined; a backward
    jump raises [Invalid_argument]. *)

val run_until : t -> Gr_util.Time_ns.t -> unit

val register_policy :
  t ->
  name:string ->
  ?retrain:(unit -> unit) ->
  replace:(unit -> unit) ->
  restore:(unit -> unit) ->
  unit ->
  unit
(** Convenience wrapper over {!Policy_slot.Registry.register}. *)
