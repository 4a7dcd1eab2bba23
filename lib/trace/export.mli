(** Exporters: Chrome [trace_event] JSON, human-readable dumps, and a
    metrics summary — plus the inverse mapping used by round-trip
    tests.

    The Chrome format is the JSON array flavour documented in the
    [trace_event] spec: [{"traceEvents": [...], "displayTimeUnit":
    "ns"}], one object per event with [ph] one of B/E/X/i/C,
    timestamps in microseconds. Open the file at [chrome://tracing]
    or {{:https://ui.perfetto.dev}Perfetto}. *)

val json_of_event : Event.t -> Json.t
(** One event as a Chrome trace object ([ts] in microseconds). *)

val chrome_of_events : Event.t list -> Json.t

val chrome : Tracer.t -> Json.t
(** Merges the tracer's event and report sinks, sorted by timestamp
    (stable: same-timestamp events keep event-sink-before-report
    order). *)

val chrome_string : Tracer.t -> string

val write_chrome : path:string -> Tracer.t -> unit
(** Writes {!chrome_string} plus a trailing newline. *)

val events_of_chrome : Json.t -> (Event.t list, string) result
(** Inverse of {!chrome_of_events}: recovers the event list from a
    Chrome trace document ([pid]/[tid] are ignored). *)

val events_of_chrome_string : string -> (Event.t list, string) result

val event_of_json : Json.t -> (Event.t, string) result
(** Inverse of {!json_of_event}, for one event object. *)

val events_of_jsonl_string : string -> (Event.t list, string) result
(** One Chrome trace object per line — the append-only audit log's
    wire format ({!Audit_log}). Blank lines are skipped; the error
    carries the offending 1-based line number. *)

val events_of_any_string : string -> (Event.t list, string) result
(** Accepts either a whole Chrome trace document or JSONL —
    [grc explain] loads both through this. *)

val pp_events : Format.formatter -> Event.t list -> unit
(** Human-readable dump, one event per line. *)

val pp_summary : Format.formatter -> Tracer.t -> unit
(** Sink accounting (buffered/emitted/dropped for both channels)
    followed by the per-monitor metrics table. *)

val openmetrics_of_tracers : Tracer.t list -> string
(** Complete OpenMetrics exposition for a set of tracers (a fleet
    passes control first, then each node): the per-monitor families
    ({!Metrics.openmetrics_into}, including fleet rollup rows when
    more than one tracer is given) and sink throughput/drop counters
    per channel. Terminated with [# EOF\n]. *)

val openmetrics : Tracer.t -> string
(** [openmetrics_of_tracers [t]]. *)

val write_openmetrics : path:string -> Tracer.t list -> unit
