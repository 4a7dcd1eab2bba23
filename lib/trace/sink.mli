(** Bounded ring-buffer event sink with explicit drop accounting.

    Models the eBPF ring buffer the paper's REPORT action streams
    over: a bounded buffer that {e never} blocks the producer and
    grows by doubling up to [capacity], never beyond, so memory follows
    the events actually held. When full, the default [Drop_newest] policy
    rejects the incoming event and counts it — exactly what
    [bpf_ringbuf_reserve] failing does — while [Overwrite_oldest]
    keeps the most recent window (an ftrace-style overwrite mode);
    overwritten events count as drops too. Either way memory stays
    bounded and every lost event is accounted for. *)

type overflow =
  | Drop_newest  (** reject incoming events when full (eBPF ringbuf) *)
  | Overwrite_oldest  (** evict the oldest event when full (ftrace overwrite) *)

type t

val create : ?capacity:int -> ?overflow:overflow -> unit -> t
(** [capacity] defaults to [65536] events, [overflow] to
    [Drop_newest]. Requires [capacity > 0]. The ring starts at 16
    slots (fewer if [capacity] is smaller). *)

val emit : t -> Event.t -> unit
(** Amortized O(1), never blocks; allocates nothing, except when it
    doubles a ring still below [capacity]. *)

val capacity : t -> int
val overflow : t -> overflow

val length : t -> int
(** Events currently buffered. *)

val emitted : t -> int
(** Total {!emit} calls since creation (buffered + dropped). *)

val dropped : t -> int
(** Events lost to overflow (rejected or overwritten). *)

val is_full : t -> bool

val to_list : t -> Event.t list
(** Buffered events, oldest first. *)

val iter : (Event.t -> unit) -> t -> unit
(** Oldest first. *)

val clear : t -> unit
(** Empties the buffer; [emitted]/[dropped] accounting is preserved. *)
