(** The tracer: the single handle instrumented subsystems emit into.

    A tracer owns two sinks, a metrics registry and a causal span
    context:

    - [events] — the debug/profiling channel (sim dispatch, hook
      entry/exit, rule checks, store traffic). Emission is gated on
      {!enabled} and costs one branch when disabled, so always-on
      instrumentation sites are free in untraced runs.
    - [reports] — the data-plane channel carrying the REPORT action's
      structured violation events (the paper's eBPF-ringbuf stream to
      userspace). This channel is {e always} on: REPORTs are product
      behavior, not debugging, and the runtime's violation log is a
      view over it. It is still bounded with drop accounting.
    - [metrics] — the per-monitor registry ({!Metrics}), also always
      on (O(1) per check).
    - the span context — a monotonic span-id allocator plus the
      "current cause" register. When tracing is enabled every
      recorded event carries its own [span] id and, when emitted
      inside a causal context, the [parent] span id of the event
      that caused it, so a trace is a forest of decision trees that
      {!Provenance} can reconstruct. Ids are allocated in emission
      order on the sim clock, so they are deterministic under a
      fixed seed.

    Timestamps come from the [clock] the tracer was created with —
    in every deployment that is the simulated kernel clock, which is
    why traces are deterministic under a fixed seed. *)

type t

val create :
  clock:(unit -> Gr_util.Time_ns.t) ->
  ?capacity:int ->
  ?overflow:Sink.overflow ->
  ?enabled:bool ->
  ?node_id:int ->
  unit ->
  t
(** [capacity] (default 65536) bounds the event sink, 16384 the
    report sink; both start
    small and grow on demand up to that bound. [enabled]
    defaults to [false]: metrics and reports flow, trace events do
    not. [node_id], when given, tags every emitted event and report
    with a trailing [("node", Int id)] argument and stamps the
    metrics registry — fleet runs use it so merged traces stay
    attributable to the shard that produced them. Without it the
    output is byte-identical to what single-node deployments always
    emitted. A fresh tracer owns a fresh span context. *)

val enabled : t -> bool
val set_enabled : t -> bool -> unit

val clock : t -> unit -> Gr_util.Time_ns.t
val events : t -> Sink.t
val reports : t -> Sink.t
val metrics : t -> Metrics.t

val node_id : t -> int option

(* Causal span context: a span-id allocator and the current causal
   parent, one per tracer. *)

val set_span_channel : t -> offset:int -> stride:int -> unit
(** [set_span_channel t ~offset ~stride] replaces [t]'s context with a
    fresh one allocating ids [offset, offset + stride, ..]. Fleets
    give each member's tracer a disjoint channel (control is
    channel 0, node [i] channel [i+1], stride [nodes+1]) so merged
    traces carry globally unique span ids with no cross-domain
    coordination; [id mod stride] recovers the emitting channel.
    Requires [0 <= offset < stride].
    @raise Invalid_argument otherwise. *)

val fresh_span : t -> int
(** Allocate the next span id (monotonic within the context, advancing
    by the channel stride — 1 for standalone deployments). *)

val with_parent : t -> int option -> (unit -> 'a) -> 'a
(** [with_parent t (Some span) f] runs [f] with [span] as the causal
    parent of everything it emits, restoring the previous parent when
    [f] returns or raises; scopes nest. [with_parent t None f] is
    [f ()] under the current parent. *)

(* Emitters; all no-ops when disabled except [report]. [?span] pins
   the event's own span id (callers that also set it as the current
   parent allocate it first with {!fresh_span}); [?parent] overrides
   the context's current parent — the cross-time edge used by e.g.
   a RETRAIN.run firing in a later dispatch than the RETRAIN.scheduled
   that caused it. *)

val instant :
  t -> cat:string -> ?args:(string * Event.arg) list -> ?span:int -> ?parent:int -> string -> unit

val counter : t -> cat:string -> ?span:int -> string -> (string * float) list -> unit

val complete :
  t ->
  cat:string ->
  dur_ns:float ->
  ?args:(string * Event.arg) list ->
  ?span:int ->
  ?parent:int ->
  string ->
  unit

val with_span : t -> cat:string -> ?args:(string * Event.arg) list -> string -> (unit -> 'a) -> 'a
(** Emits the [End] even if the body raises. The span's id is the
    causal parent of everything the body emits. *)

val report : t -> ?args:(string * Event.arg) list -> string -> unit
(** Emits an [Instant] of category ["report"] into the report sink,
    bypassing {!enabled}. Carries provenance args only when tracing
    is enabled, so untraced report streams keep their historical
    byte-exact shape. *)
