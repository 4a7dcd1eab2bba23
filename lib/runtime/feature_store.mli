(** The global feature store (§4.3).

    Guardrails aggregate system-wide metrics "over time or across many
    function invocations" without ad-hoc kernel data structures; the
    store is the single state channel between kernel instrumentation,
    learned-policy bookkeeping and monitors.

    Each key holds a bounded ring of timestamped samples, its newest
    one being the key's latest value (bounded memory is non-negotiable
    in-kernel; the oldest samples are evicted first). Timestamps and
    values sit unboxed in parallel arrays that start small and double
    up to the capacity. Windowed aggregates are computed over the
    samples whose timestamp falls within [(now - window, now]].

    {b Retention.} A key's ring keeps what its live demands
    ({!register_demand}) read, not everything up to the capacity:
    when the ring is full and every live demand on the key has
    already expired its oldest sample, the next save overwrites that
    sample instead of growing the ring. The contract:
    - The ring always holds every sample some live demand still
      counts, so it holds at least the longest live demand window,
      and any read of the key at that window or shorter is exact.
    - A by-key read, or a newly registered demand, with a longer
      window on such a key sees at least that much history and at
      most [capacity_per_key] samples.
    - A key with no live demand keeps up to [capacity_per_key]
      samples, as does a demand that is never read (expiry is lazy,
      on read).
    - Rings never shrink, and dropping a sample no demand counts
      changes no demand state, so every read value and counter is the
      same as with an unbounded ring.
    A reader of a window longer than the key's demands therefore
    registers its own demand for the shape it reads.

    {b Incremental aggregation.} Monitors run at nanosecond budgets,
    so re-scanning a window on every check is not affordable. At
    install time the runtime registers each aggregate it will ask for
    as a {e demand} ({!register_demand}); the store then maintains
    streaming per-demand state — running count/sum/sum-of-squares for
    COUNT/SUM/RATE/AVG/STDDEV, a monotonic queue of sample numbers
    for MIN/MAX, window head/tail tracking for DELTA — updated O(1)
    amortized on every {!save} and expired lazily against the clock on
    read. QUANTILE has no exact O(1) summary and instead
    binary-searches the time-ordered ring for the window cutoff,
    ranking only the in-window suffix.

    A key read resolves once to its {e members} (see {!link}): one
    store for a local key, the tier and every shard for a fleet-merged
    one. Every read folds its members, so a local read is the
    one-member case of a merged one: a LOAD answers the newest sample
    across them, and a streaming aggregate folds each member's demand
    state in member order. Aggregates that cannot stream fall back to
    the naive scan of the members' merged window, which is also kept
    as the oracle path for equivalence testing ({!set_force_naive}). *)

type t

(** {1 Scoped keys and fleet routing}

    Keys are scoped. The flat string namespace every caller uses is
    {e node-local sugar}: a plain key names state in this store
    instance. A key carrying the canonical ["global::"] encoding (what
    the DSL's [GLOBAL(key)] qualifier lowers to, see
    {!Gr_dsl.Ast.global_key}) is routed to the fleet-wide tier set by
    {!link}. A standalone store is its own global tier, so single-node
    behaviour is bit-for-bit unchanged. *)

val create : clock:(unit -> Gr_util.Time_ns.t) -> ?capacity_per_key:int -> unit -> t
(** [capacity_per_key] defaults to 4096 samples. *)

val link : t -> t array -> unit
(** [link tier shards] fixes fleet routing once. [tier] becomes the
    fleet tier over [shards]: its plain keys then read as the {e merged}
    view over its members, the tier's own table (member 0, so
    fleet-level saves of plain keys stay visible) and then each shard
    in index order. Loads answer the newest sample across the members,
    a timestamp tie going to the later member; windowed aggregates fold
    every member's streaming state; {!window_samples} is the
    timestamp-sorted concatenation. Each shard's ["global::"]-scoped
    keys route to [tier]: saves, loads, demand registrations,
    aggregates and {!watch}es on them forward there, so a shard's
    watch of a global key wakes on every save of it — the cross-node
    signalling channel.

    Routing never changes afterwards. Link before installing monitors
    or creating handles, so demand registrations fan out and handles
    resolve to the final routing.
    @raise Invalid_argument unless every store involved is unlinked
    and has no entries. *)

val set_tracer : t -> Gr_trace.Tracer.t -> unit
(** Attach a tracer. When tracing is enabled, every SAVE emits a
    counter event (["store:<key>"], so Chrome plots each key as a
    time series) and every windowed aggregate an instant event
    carrying the scan size and whether the incremental path served
    it. Individual LOADs are counted ({!load_count}) but not traced
    per-call — they are the hottest operation in the system and
    per-load events would be all volume, no signal; the per-check
    trace events already carry the VM's dynamic cost. *)

val save : t -> string -> float -> unit
(** Appends a timestamped sample, updates the latest value and every
    registered demand on the key. After the write it calls the key's
    {!watch}ers, then the store-wide {!on_save} subscribers. *)

val load : t -> string -> float
(** Latest value; 0. for a key never saved (LOAD's semantics). *)

val mem : t -> string -> bool
(** Whether the key holds a sample. A demand or a {!watch} on a key
    never saved does not make it a member: an entry with no sample
    reads exactly like a missing key, through {!load} and the windowed
    reads alike (such a member never turns a merged read into a
    miss). *)

(** {1 Change notification} *)

type watch

val watch : t -> string -> (float -> unit) -> watch
(** [watch t key f] calls [f v] after every save of [v] to [key]. The
    key is resolved once, as {!save_handle} does, and [f] hangs on
    the key's entry (created here if needed), so a save calls exactly
    its own key's watchers and no one filters keys per save. On a
    fleet node a global key's watch therefore lands on the tier's
    entry and wakes on any member's save of it. Watchers of one key
    run in registration order, inside the save's trace span, before
    any {!on_save} subscriber; calling them allocates nothing. This
    is how ON_CHANGE triggers and control keys are wired. *)

val last_watch : watch -> bool
(** Whether no watcher was added to the key after this one (and it is
    still watching): a callback appended to it then runs where a new
    {!watch} of the key would. *)

val unwatch : watch -> unit
(** Detach the watcher. Idempotent. *)

(** {1 Aggregate demands} *)

val register_demand :
  t -> key:string -> fn:Gr_dsl.Ast.agg -> window_ns:float -> param:float -> unit
(** Declare that [aggregate] will be asked for this exact
    [(key, fn, window_ns, param)] shape, switching it to the
    streaming path. Demands are refcounted: registering the same
    shape twice (two monitors sharing a rule term) takes one slot,
    and the demand survives until released as many times. A demand
    registered mid-run replays the key's retained samples, so its
    first read already agrees with the scan. *)

val release_demand :
  t -> key:string -> fn:Gr_dsl.Ast.agg -> window_ns:float -> param:float -> unit
(** Drops one reference; the streaming state is freed when the count
    reaches zero. Releasing an unregistered demand is a no-op. *)

val demand_count : t -> int
(** Distinct demands currently registered (not counting refs). *)

val demand_shapes : t -> (string * Gr_dsl.Ast.agg * float * float) list
(** Every registered [(key, fn, window_ns, param)] shape, in a
    deterministic (sorted) order — the enumeration a fault soak walks
    to cross-check the streaming path against the naive oracle. *)

val set_force_naive : t -> bool -> unit
(** When set, every aggregate takes the naive full-scan path even if
    a demand is registered — the oracle mode the equivalence property
    test runs both sides of. Default false. *)

(** {1 Windowed reads} *)

type agg_result = {
  value : float;
  scanned : int;
      (** samples touched by this call: the full window population on
          the naive path; on the incremental path only the samples
          expired now (amortized O(1)) plus, for QUANTILE, the
          in-window suffix it ranked *)
  per_read : int;
      (** the part of [scanned] a repeat read of the same state touches
          again: all of it on the naive path, QUANTILE's ranked suffix,
          0 for the other streaming reads (their expiry is done) *)
  incremental : bool;  (** whether registered demands served it *)
}

val aggregate_result :
  t -> key:string -> fn:Gr_dsl.Ast.agg -> window_ns:float -> param:float -> agg_result
(** Windowed aggregate with cost accounting — the VM's entry point.
    Empty windows yield 0 for every function, so rules are total.
    RATE is the sample {e sum} divided by the window in seconds —
    saving 0/1 event markers gives events per second. DELTA is the
    newest sample minus the oldest in the window (a trend signal).

    {b Hit or miss.} A read streams, and counts as a hit
    ({!agg_hit_count}), when some member has a live demand for the
    shape and every member holding samples has one. Otherwise it is a
    miss ({!agg_miss_count}) and scans the members' merged window: no
    member has a demand (even when every member is empty), a member
    holding samples lacks one, or {!set_force_naive} is set on the
    resolved store. *)

val aggregate :
  t -> key:string -> fn:Gr_dsl.Ast.agg -> window_ns:float -> param:float -> float
(** [aggregate t ~key ~fn ~window_ns ~param =
    (aggregate_result t ...).value]. *)

(** {1 Pre-resolved handles}

    The JIT tier resolves a read's store routing, entries and streaming
    demands once at monitor install, reducing the per-check read to a
    few loads. SAVE actions and the deployment's ingest helpers
    resolve their writes the same way, through save handles. Handle
    reads are observationally identical to {!load}/{!aggregate_result},
    which read through the same functions: same counters, same trace
    instants, same values. Routing is fixed by {!link} before any
    handle exists, so a handle pins its members' entries at creation,
    making any that is missing; like a {!watch}'s, such an entry reads
    as a missing key until the first save. An aggregate handle also
    caches each member's live demand and refinds it once released, so
    it never reads stale state; [set_force_naive true] takes the naive
    scan. A read costs a pass over the members; a LOAD allocates
    nothing, and a streaming COUNT/SUM/AVG nothing beyond its
    [agg_result], whatever the member count. *)

type load_handle

val load_handle : t -> string -> load_handle option
(** Always [Some]; the [option] is kept for source compatibility with
    existing callers. *)

val handle_load : load_handle -> float
(** Same result and counter effects as [load] on the handle's store;
    allocates nothing. *)

type agg_handle

val agg_handle :
  t -> key:string -> fn:Gr_dsl.Ast.agg -> window_ns:float -> param:float -> agg_handle

val handle_aggregate : agg_handle -> agg_result
(** Same result, counter effects and trace instant as
    [aggregate_result] with the handle's shape. *)

(** {2 Shared reads}

    A trigger group (see {!Gr_runtime.Jit}) reads each input once into
    a frame its members share, and has every member count the reads
    its own program makes: counters stay {e logical}, as if each
    member had read through its handle. A handle read is exactly a
    physical read plus its count. *)

val peek : load_handle -> float
(** [handle_load] without counting the LOAD. *)

val handle_store : load_handle -> t
(** The store a read through the handle counts on: the one its key
    resolves to. *)

val count_loads : t -> int -> unit
(** Counts [n] logical LOADs on the store, as [n] [handle_load]s of
    handles whose {!handle_store} it is would. *)

val scan : agg_handle -> agg_result
(** [handle_aggregate] without counting or tracing the read: expires
    and folds the window state the same way. *)

val count_aggregate : agg_handle -> scanned:int -> incremental:bool -> unit
(** Counts one logical aggregate read on the handle's store — a hit
    when [incremental], else a miss — and emits its trace instant with
    [scanned] samples, as [handle_aggregate] does for its own read. *)

type save_handle

val save_handle : t -> string -> save_handle
(** Resolves the key's routing once, as {!load_handle} does, and
    pins the key's entry. *)

val handle_save : save_handle -> float -> unit
(** Same effects as [save] on the handle's store and key: the sample,
    the counters, the trace counter, the {!watch}er and {!on_save}
    notifications and, for a node's save of a global key, the
    {!set_global_publish} interception. The store allocates nothing
    for it unless the key has a MIN/MAX demand; watchers and
    subscribers may. *)

val window_samples : t -> key:string -> window_ns:float -> float array
(** The raw samples inside the window, oldest first. For
    instrumentation that needs more than the built-in aggregates
    (e.g. a two-sample KS statistic against a training set). Exact
    when the key has no demand or a live demand at least [window_ns]
    long (see Retention above). *)

val samples_in_window : t -> key:string -> window_ns:float -> int
(** How many samples a naive aggregate over this window would scan;
    O(log window) by binary search. Exact under the same condition as
    {!window_samples}. *)

val set_global_publish : t -> (string -> float -> unit) option -> unit
(** Fleet interception hook (docs/PARALLEL.md): when set, a
    {!save} of a global-scoped key that would cross into a {e foreign}
    global tier calls the hook instead of writing the tier directly.
    Node stores in a fleet use it to buffer cross-domain
    GLOBAL saves as intents replayed deterministically at the epoch
    barrier. Saves that resolve to the store itself are never
    intercepted; [None] (the default) restores direct writes. *)

val on_save : t -> (string -> float -> unit) -> unit
(** Store-wide subscription: called with the key and value of every
    save that lands in this store, after the key's {!watch}ers, in
    registration order. Nothing in the runtime uses it; code that
    cares about one key should {!watch} it instead. *)

val save_count : t -> int
(** Total saves since creation. *)

val load_count : t -> int
(** Total loads since creation. *)

val agg_hit_count : t -> int
(** Aggregate reads served by a registered demand. *)

val agg_miss_count : t -> int
(** Aggregate reads that fell back to the naive scan (no demand
    registered, or {!set_force_naive}). *)

val expired_count : t -> int
(** Samples retired from demand windows so far, by lazy expiry or
    capacity eviction — the amortized cost the streaming path pays
    instead of re-scanning. *)
