(** Action-machine model checking — the GRL2xx pass of [grc verify].

    A deployment's guardrails drive a small machine: each policy's
    slot is [Live], [Canaried] (a canaried REPLACE landed on its node
    subset) or [Fallback]; each SAVE-carrying monitor has a
    "has fired at least once" bit; each DEPRIORITIZE class a
    "deprioritized" bit. The per-policy core is exactly
    {!Gr_kernel.Policy_slot.Model} — the runtime slot's transition
    table exposed as data, so the checker cannot drift from the
    implementation.

    {!check} explores every reachable state by BFS. A monitor can
    fire in a state iff its rule {e may} evaluate falsy under the
    abstract store induced by the already-fired savers (values taken
    under the {!Dataflow} fixpoint — an over-approximation of any
    firing prefix, making "cannot fire" verdicts proofs). Findings:

    - [GRL201] (warning) — a RESTORE that is dead code: its monitor
      can never fire, or the policy is live in every reachable state
      where it fires (no REPLACE can precede it).
    - [GRL202] (warning) — a canaried policy (see {!config}) that
      reaches the canary state but can never extend its fallback
      fleet-wide: the canary never promotes.
    - [GRL203] (warning) — a REPLACE/RESTORE storm, the proof-grade
      generalization of GRL104's pattern match: both edges live in
      one strongly connected component of the reachable graph, so
      each re-enables the other forever.

    GRL201/202 are suppressed when exploration truncates at
    [max_states]; GRL203 cycles are real wherever found.

    Each GRL203 finding carries, when synthesis succeeds, a concrete
    {!schedule} of store writes that drives the {e real} engine along
    the flagged firing sequence — replayable via
    [grc soak --scenario store --plan] (see {!Gr_fault.Replay}), with
    the expected final slot states and minimum transition counts
    recorded for the test harness to assert. *)

type config = {
  max_states : int;  (** exploration cap; default 4096 *)
  canaries : (string * int list) list;
      (** policies whose REPLACE is canaried onto a node subset *)
}

val default_config : config

type slot_state = Live | Canaried | Fallback

type step = { at_ns : int; step_key : string; step_value : float }
(** One synthetic store write of the counterexample schedule. *)

type schedule = {
  steps : step list;  (** chronological *)
  horizon_ns : int;  (** run the sim at least this long *)
  expected : (string * bool) list;  (** policy -> on_fallback at the end *)
  min_flips : (string * int) list;
      (** policy -> minimum slot transitions the replay must observe *)
}

type finding = {
  diag : Diagnostic.t;
  path : string list;  (** firing monitor names, initial state onward *)
  schedule : schedule option;
}

type result = {
  findings : finding list;
  states : int;  (** reachable states explored *)
  transitions : int;
  truncated : bool;  (** hit [max_states]; GRL201/202 suppressed *)
}

val check : ?config:config -> Dataflow.t -> result
(** Explores the deployment the fixpoint was computed over. *)
