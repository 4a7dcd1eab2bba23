(** The [grc verify] driver: every static pass over one deployment.

    Computes the deployment's {!Dataflow} analysis (the SAVE fixpoint
    and its writer table) once, then composes, in order:
    - the {!Analyze} lint passes (GRL001–005, GRL101–105) — running
      on top of that fixpoint, so per-rule verdicts see through
      SAVE-defined keys;
    - the {!Machine} action-machine model checker (GRL201–203), whose
      schedule-bearing findings get an executable repro attached via
      the [repro] callback (the CLI passes
      {!Gr_fault.Replay.repro_command});
    - the {!Race} fleet analysis (GRL301) when [fleet] is set.

    GRL104 (the REPLACE/RESTORE flap {e pattern}) is dropped when the
    model checker ran to completion: a real storm comes back as a
    GRL203 {e proof} with a counterexample, and a pattern that can
    never actually interleave comes back as silence. *)

type config = {
  lint : Analyze.config;
  machine : Machine.config;
  fleet : bool;  (** run {!Race.check}; default false *)
}

val default_config : config

type t = {
  diagnostics : Diagnostic.t list;
      (** lint (minus superseded GRL104), then machine, then race *)
  machine : Machine.result;
  race : Diagnostic.t list;
}

val run :
  ?config:config ->
  ?repro:(Machine.schedule -> string) ->
  (int * Gr_compiler.Monitor.t) list ->
  t
(** [run tagged] over [(node id, monitor)] pairs. Single-file
    deployments pass node id 0 for every monitor. *)

(** {1 Admission control}

    The PDP decision for one pushed spec (the serving daemon's gate,
    also behind [grc lint -] / [grc verify -] on stdin). *)

type admission = {
  admitted : bool;
  monitors : Gr_compiler.Monitor.t list;  (** empty when compilation failed *)
  diagnostics : Diagnostic.t list;  (** static findings (admitted or not) *)
  reason : string option;
      (** rendered compile error, or a findings summary, when rejected *)
}

val admit : ?config:config -> ?repro:(Machine.schedule -> string) -> string -> admission
(** Compile the source and run the full static pass family ({!run})
    under the strict contract: any error {e or warning} rejects, as
    [grc lint --strict] would. Admitted pushes return the compiled
    monitors ready to install. *)
