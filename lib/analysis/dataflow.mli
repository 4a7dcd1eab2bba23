(** Inter-rule SAVE dataflow: a whole-deployment abstract store.

    Monitors communicate through the feature store — one rule's SAVE
    is another rule's LOAD. This module closes that loop for the
    static analyses: it builds the SAVE dataflow graph over a
    deployment and propagates {!Interval} abstractions through
    SAVE-defined keys to a widening/narrowing fixpoint, so the
    per-program verdicts (GRL001–005 in {!Analyze}) and the
    action-machine checker ({!Machine}) see sound value ranges for
    keys whose contents are {e other rules' outputs}, not just
    external telemetry.

    Iteration starts from every SAVE-written key at [{0}] (the
    store's initial value) and ascends by chaotic iteration; after a
    few warmup rounds, still-growing keys are widened (finite bounds
    jump to ±∞) so cyclic SAVE chains terminate. A bounded narrowing
    pass then re-applies the exact transfer, keeping refinements only
    while the environment remains a post-fixpoint. Keys never written
    by any SAVE stay {!Interval.unknown} (external, finite).

    The result is the deployment's one analysis: {!Analyze},
    {!Machine} and {!Race} all read the same fixpoint and the same
    per-key writer table, computed once per audit by
    {!Audit.run} (once per [grc lint] run for {!Analyze} alone).

    Also home to the abstract evaluation primitives for straight-line
    {!Gr_compiler.Ir} programs, shared by {!Analyze} and
    {!Machine}, and to the SCC routine both use. *)

type writer = {
  monitor : int;  (** index into [monitors] *)
  value : Interval.t;  (** the SAVE value under the fixpoint *)
}

type t = {
  monitors : Gr_compiler.Monitor.t array;  (** the deployment, in order *)
  env : (string, Interval.t) Hashtbl.t;
  keys : string list;  (** SAVE-written keys, first-written order *)
  writers : (string, writer list) Hashtbl.t;
      (** each SAVE-written key's writers, in deployment order (a
          monitor that SAVEs a key twice appears twice) *)
  rounds : int;  (** ascending rounds until stabilization *)
  widenings : int;  (** widening steps taken *)
}

val fixpoint : Gr_compiler.Monitor.t list -> t
(** The least post-fixpoint the widening/narrowing schedule reaches
    for the deployment's SAVE graph. Deterministic: iteration order
    is first-written key order. *)

val lookup : t -> string -> Interval.t
(** Abstract store contents under the fixpoint;
    {!Interval.unknown} for keys no SAVE writes. *)

val writers : t -> string -> writer list
(** The key's writers; [[]] for keys no SAVE writes. *)

val is_post_fixpoint : t -> bool
(** Soundness check: [F(env) ⊑ env] pointwise on every SAVE-written
    key — exposed for the QCheck termination property. *)

val components : int -> (int -> int list) -> int list list
(** [components n succs]: the strongly connected components (Tarjan)
    of the graph on vertices [0 .. n-1], in completion order — each
    component after every component it reaches. *)

(** {2 Abstract evaluation primitives} *)

val eval_unop : Gr_dsl.Ast.unop -> Interval.t -> Interval.t
val eval_binop : Gr_dsl.Ast.binop -> Interval.t -> Interval.t -> Interval.t

val eval_agg : Gr_dsl.Ast.agg -> Interval.t -> Interval.t
(** Range of a windowed aggregate given the key's sample range;
    always includes 0, the empty-window result. *)

val eval_program :
  lookup:(string -> Interval.t) -> slots:string array -> Gr_compiler.Ir.program -> Interval.t array
(** Per-register abstract values of a straight-line program (single
    assignment makes the final register file a complete record of
    every intermediate). *)

val result_value :
  lookup:(string -> Interval.t) -> slots:string array -> Gr_compiler.Ir.program -> Interval.t
(** The program's result register; {!Interval.unknown} for the empty
    program. *)

val saves : Gr_compiler.Monitor.t -> (string * Gr_compiler.Ir.program) list
(** A monitor's SAVE actions as [(key, value program)] pairs. *)
