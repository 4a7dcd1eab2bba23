(** Minimal dependency-free JSON.

    The trace exporters (Chrome [trace_event] files), the benchmark
    harness's [--json] output and the round-trip tests all need JSON;
    the container deliberately has no JSON package, so this module
    provides the small subset we use: a document tree, a compact
    deterministic printer, and a recursive-descent parser.

    Printing is deterministic — object fields keep their construction
    order and floats print as integers when exactly integral, else
    with ["%.17g"] (shortest round-trippable) — so two identical
    traces serialize to bit-identical strings. Non-finite numbers
    (nan/inf) are not representable in JSON and print as [null]. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact (no whitespace) serialization. *)

val pp : Format.formatter -> t -> unit
(** Same bytes as {!to_string}. *)

val parse : string -> (t, string) result
(** Whole-string parse; trailing garbage is an error. Accepts the
    standard escapes including [\uXXXX] (decoded to UTF-8). *)

val parse_exn : string -> t
(** @raise Invalid_argument on malformed input. *)

(* Accessors, all total. *)

val member : string -> t -> t option
(** Field lookup on [Obj]; [None] on anything else. *)

val to_list : t -> t list
(** The elements of an [Arr]; [[]] on anything else. *)

val float_value : t -> float option
val int_value : t -> int option
val string_value : t -> string option

val equal : t -> t -> bool
