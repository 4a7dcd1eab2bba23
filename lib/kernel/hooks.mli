(** Kernel hook points.

    The paper's FUNCTION trigger evaluates a guardrail "whenever a
    specific function (e.g. a learned scheduler routine) is called"
    (§4.1). The simulated kernel exposes that by firing a named hook
    at each instrumentable call site; the guardrail engine subscribes
    monitors to hook names, and kernel instrumentation also uses hooks
    to publish features (named scalars) that listeners may forward into
    the feature store.

    Hook names are free-form strings such as ["blk:io_complete"] or
    ["sched:pick_next"]. Firing an unknown hook is cheap and legal —
    subscription creates the hook point lazily, which is what lets
    guardrails be deployed incrementally (§3.3). *)

type t

type args = (string * float) list
(** Named scalar arguments carried by a hook firing, e.g.
    [["latency_us", 132.; "device", 1.]]. *)

val create : unit -> t

val set_tracer : t -> Gr_trace.Tracer.t -> unit
(** Attach a tracer: every firing of a hook {e with listeners} emits
    an entry/exit span (category ["hook"]) carrying the hook's
    arguments — the FUNCTION trigger's entry/exit on the simulated
    timeline. Firings of unsubscribed hooks are not traced. *)

val tracer : t -> Gr_trace.Tracer.t option
(** The currently attached tracer, if any. *)

type subscription

val subscribe : t -> string -> (args -> unit) -> subscription
(** Listeners fire in subscription order.

    A listener that raises does not abort the firing: the exception
    is contained, counted ({!contained_exn_count}) and traced
    (instant event ["hook.listener_exn"], category ["hook"]), and
    the remaining listeners still run. A listener that has raised
    [max_strikes] times (default 3, {!set_max_strikes}) is
    {e quarantined}: permanently unsubscribed, the way the kernel
    disables a faulting probe handler. *)

val unsubscribe : t -> subscription -> unit

(** {1 Listeners that dispatch for several members}

    The guardrail engine runs every monitor armed on one hook from a
    single listener (a trigger group). These let such a listener keep
    the order and containment that one subscription per member would
    have. *)

val listener_id : subscription -> int
(** The id the subscription's listener carries in
    ["hook.listener_exn"] trace events. *)

val extend : t -> subscription -> int option
(** [extend t sub] reserves a listener id for one more member of
    [sub]'s listener, when that listener is still the hook's last:
    running the member there keeps the order a new subscription would
    give it. [None] once anything subscribed after it, or after it was
    unsubscribed or quarantined. *)

val contain : t -> string -> listener:int -> strikes:int -> exn -> bool
(** [contain t hook ~listener ~strikes exn] accounts one exception a
    listener (or a member it dispatches) raised on [hook] and
    contained, exactly as {!fire} does for its own listeners: counts
    it, traces it, and answers whether [strikes], the raiser's fault
    count including this one, reached the quarantine limit — then it
    is counted as quarantined, and the caller must stop running it. *)

val fire : t -> string -> args -> unit

val fire_count : t -> string -> int
(** Times the named hook has fired; 0 for unknown hooks. *)

val set_max_strikes : t -> int -> unit
(** Faults a listener may raise before quarantine; must be positive. *)

val contained_exn_count : t -> int
(** Total listener exceptions contained since creation. Fault-soak
    invariant checks reconcile this against the hook faults they
    injected — an unexplained increment is a real listener bug. *)

val quarantined_count : t -> int
(** Listeners permanently removed after reaching the strike limit. *)
