(** Discrete-event simulation engine.

    The simulated kernel, its devices, the workload generators and the
    guardrail TIMER triggers all advance on a single virtual clock
    owned by this engine. Events fire in timestamp order; ties are
    broken by scheduling order (FIFO), which keeps runs deterministic.

    Callbacks receive the engine so they can schedule follow-up events;
    an exception escaping a callback aborts the run (simulated kernels
    should not swallow bugs). *)

type t

val create : unit -> t

val set_tracer : t -> Gr_trace.Tracer.t -> unit
(** Attach a tracer: each dispatched event emits an instant trace
    event (category ["sim"]) when tracing is enabled. *)

val now : t -> Gr_util.Time_ns.t
(** Current virtual time. Starts at [Time_ns.zero]. *)

type handle
(** A scheduled (possibly periodic) event that can be cancelled. *)

val schedule_at : t -> Gr_util.Time_ns.t -> (t -> unit) -> handle
(** [schedule_at t time fn] fires [fn] when the clock reaches [time].
    Scheduling in the past raises [Invalid_argument]. *)

val schedule_after : t -> Gr_util.Time_ns.t -> (t -> unit) -> handle
(** [schedule_after t delay fn] fires [fn] at [now t + delay]. *)

val every :
  t ->
  ?start:Gr_util.Time_ns.t ->
  ?stop:Gr_util.Time_ns.t ->
  interval:Gr_util.Time_ns.t ->
  (t -> unit) ->
  handle
(** Periodic event: first firing at [start] (default: [now + interval]),
    then every [interval], never at or after [stop] if given. This is
    the substrate for the guardrail TIMER trigger. Requires
    [interval > 0]. *)

val cancel : handle -> unit
(** Idempotent; a cancelled event never fires again. Cancelling a
    periodic event from inside its own callback stops it: it is not
    re-armed. A handle whose event has already fired (one-shot) or
    ended (periodic past [stop]) is inert, even once a later event
    reuses its queue slot. *)

val step : t -> bool
(** Runs the single earliest pending event; [false] if none remain. *)

val next_event_time : t -> Gr_util.Time_ns.t option
(** Timestamp of the next event {!step} would run, or [None] if the
    queue is empty — so a caller can drive the engine one event at a
    time up to a limit and examine invariants between events, as the
    fault-injection soak does. Cancelled events leave the queue at
    once and are never reported. *)

val run_until : t -> Gr_util.Time_ns.t -> unit
(** Runs events with timestamp [<= limit], then advances the clock to
    [limit]. *)

val run : t -> unit
(** Runs until the queue is empty. Periodic events without [stop] make
    this diverge; prefer [run_until] in experiments. *)

val run_epochs :
  pool:Pool.t ->
  epoch:Gr_util.Time_ns.t ->
  limit:Gr_util.Time_ns.t ->
  at_barrier:(Gr_util.Time_ns.t -> unit) ->
  t array ->
  unit
(** [run_epochs ~pool ~epoch ~limit ~at_barrier engines] advances all
    [engines] in lock-step sim-time epochs: each epoch, every engine
    is [run_until] the next boundary in parallel on [pool], then
    [at_barrier boundary] runs sequentially on the calling domain.
    This is the fleet runtime's substrate (docs/PARALLEL.md): engines
    must own disjoint event sets and buffer any cross-engine effect
    for the barrier callback. Epochs start at the max of the engines'
    clocks and the last boundary is exactly [limit]. Requires
    [epoch > 0]. @raise Invalid_argument otherwise. *)

val run_chunked :
  t ->
  epoch:Gr_util.Time_ns.t ->
  limit:Gr_util.Time_ns.t ->
  at_barrier:(Gr_util.Time_ns.t -> unit) ->
  unit
(** {!run_epochs} over [[| t |]] on a one-domain pool: advances the
    engine in epoch-sized chunks with [at_barrier] called at every
    boundary (the last exactly [limit]). Since {!run_until} fires every event
    [<= boundary] before clamping the clock, the event stream is
    byte-identical to one [run_until limit] — barriers are pure
    decision points. This is the promotion decision point for
    single-deployment (--nodes 1) spec rollouts. Requires
    [epoch > 0]. @raise Invalid_argument otherwise. *)

val pending : t -> int
(** Number of queued (non-cancelled) events, in O(1). A periodic
    event is not counted while its own callback runs. *)

val events_fired : t -> int
(** Total callbacks executed since creation; used by overhead
    accounting tests. *)
