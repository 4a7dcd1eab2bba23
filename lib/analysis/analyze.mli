(** Static analysis over compiled monitors — the engine behind
    [grc lint].

    Two passes over a whole deployment (every monitor that will be
    installed together):

    {b Pass 1 — abstract interpretation.} Each rule and SAVE value
    program is evaluated over the {!Interval} domain. Slot values come
    from the {!Dataflow} fixpoint: a key written by some monitor's
    SAVE is modelled as the join of the abstract values of every SAVE
    program targeting it (plus 0, the store's initial value), so a
    key only ever assigned [true]/[false] is known to be in
    [{0} ∪ {1}]; a key never written by a monitor is external
    telemetry, assumed finite but otherwise unknown. Aggregates seed
    from their function (COUNT/RATE/STDDEV are nonnegative; the rest
    are bounded by the key's sample range joined with 0, the
    empty-window result). Findings:
    - [GRL001]/[GRL002] (warning) — rule always true (the guardrail
      can never fire) / always false (fires on every check).
    - [GRL003] — division whose divisor is always 0 (error: the VM
      silently yields 0) or may be 0 (warning, suppressed when
      nothing is known about the divisor).
    - [GRL004] (warning) — comparison with a statically constant
      outcome, e.g. disjoint operand intervals.
    - [GRL005] (warning) — comparison an operand of which may be NaN
      (NaN comparisons are false, except [<>]).

    {b Pass 2 — interference analysis.} Deployment-wide findings:
    - [GRL101] (error) — duplicate SAVE key within one monitor.
    - [GRL102] (warning) — two monitors SAVE the same key.
    - [GRL103] (error) — SAVE ⇄ ON_CHANGE trigger cycle (including
      self-loops): monitors that re-trigger each other forever.
    - [GRL104] (warning) — a policy both REPLACEd and RESTOREd:
      opposing actions can flap the policy slot.
    - [GRL105] (error) — cumulative static cost of the monitors on
      one FUNCTION hook exceeds the per-hook budget. *)

type config = { hook_budget_ns : float }

val default_config : config
(** [{ hook_budget_ns = 500. }] — half a microsecond of straight-line
    monitor work per hook crossing. *)

val deployment : ?config:config -> Dataflow.t -> Diagnostic.t list
(** All findings for the deployment the fixpoint was computed over,
    deterministically ordered: pass-1 findings in monitor order (rule
    first, then SAVE value programs, in instruction order), then
    pass-2 findings in code order. *)
