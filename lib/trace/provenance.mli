(** Decision provenance: reconstructing causal chains from traces.

    Every traced event carries a [span] id and, when something caused
    it, a [parent] span id ({!Tracer}). This module rebuilds the
    resulting forest — each sim dispatch roots a tree of hook
    firings, rule checks, actions, reports and store traffic — and
    answers the operator's question about any decision: {e who fired,
    triggered by what, reading which values, written by whom}.

    Works over live sink contents ({!of_events}) or a Chrome
    trace_event file written earlier ({!load}), which is what the
    [grc explain] subcommand drives. *)

type node = {
  event : Event.t;
  index : int;  (** position in the input stream (stable tiebreak) *)
  span : int option;
  parent : int option;
  mutable children : node list;  (** emission order *)
}

type t

val of_events : Event.t list -> t
val of_chrome_string : string -> (t, string) result
val load : string -> (t, string) result
(** Read and parse a Chrome trace_event file, or a JSONL audit log
    written by {!Audit_log} (one event object per line) — both carry
    the same (span, parent) provenance encoding. *)

val size : t -> int
val nodes : t -> node list
(** All nodes, input order. *)

val orphans : t -> node list
(** Nodes whose [parent] id resolves to no recorded span — events
    that fell out of the trace window or were emitted without
    provenance. An explainable trace has none. *)

val roots : t -> node list
(** Parentless nodes (sim dispatches, pre-run installs), input order. *)

val reports : t -> node list
(** REPORT events (category ["report"]), input order — index [N] is
    what [grc explain --report N] selects. *)

val actions : ?name:string -> t -> node list
(** Action instants (category ["action"]) and control-plane decisions
    (category ["audit"]: ["spec.push"], ["rollout.promote"], ...),
    optionally filtered by event name. *)

val monitor_decisions : t -> string -> node list
(** Reports and actions attributed to the named monitor. *)

val ancestors : t -> node -> node list
(** Causal chain above a node, root first, excluding the node. *)

(** One explained decision. [chain] is the ancestor path root-first
    ending at the target; [decision] is the rule check that fired it
    (when one did); [effects] are everything that decision caused
    (the target's siblings and their descendants); [inputs] trace
    each store key the rule read back through the save that produced
    its value — recursively, so a derived rate unwinds to the hook
    traffic that fed it. *)
type explanation = {
  target : node;
  chain : node list;
  decision : node option;
  rule : string option;  (** disassembly carried by the REPORT *)
  effects : node list;
  inputs : input list;
}

and input = {
  key : string;
  value : float option;  (** the value the check read (snapshot) *)
  writer : node option;  (** last save of the key before the decision *)
  via : explanation option;  (** how that write itself came to be *)
}

val explain : ?max_depth:int -> t -> node -> explanation
(** [max_depth] (default 4) bounds the recursive input unwind. *)

val pp_node : Format.formatter -> node -> unit
val pp_explanation : Format.formatter -> explanation -> unit
(** Human rendering: the chain, the decision's rule and effects, and
    the recursive input provenance, indented. *)

val explanation_to_json : explanation -> Json.t
