(** One [grc serve] session: a {!Lifecycle} behind the one-request,
    one-reply JSON protocol of docs/SERVE.md.

    {v
    {"cmd":"push","who":NAME,"spec":SRC}  -> admission decision
    {"cmd":"advance","epochs":N}          -> drive N epoch barriers
    {"cmd":"status"}                      -> lifecycle snapshot
    {"cmd":"quit"}                        -> acknowledged; stopped becomes true
    v}

    Every decision the daemon makes lives here or in the lifecycle;
    the caller only moves bytes (a unix socket in [grc serve]) and
    stops serving once {!stopped} holds. A request that is not valid
    JSON, names no known [cmd], or breaks a bound below gets
    [{"ok":false,"error":...}] and changes nothing. *)

type t

val max_advance_epochs : int
(** The most epochs one [advance] may drive (10,000: 500 simulated
    seconds at the default 50ms epoch). [epochs] must be an integer
    in [[0, max_advance_epochs]]; it defaults to 1 when absent. *)

val max_request_bytes : int
(** The largest request {!handle} accepts (1 MiB). A transport needs
    to read at most one byte more to know a request is too large. *)

val create : Lifecycle.t -> t
(** A session driving an already booted lifecycle. *)

val handle : t -> string -> string
(** [handle t request] answers one raw request with one raw reply:
    a compact JSON object and a newline. *)

val stopped : t -> bool
(** [true] once a [quit] request has been answered. *)
