(** Fleet race analysis — the GRL3xx pass of [grc verify --fleet].

    The parallel fleet runtime (docs/PARALLEL.md) buffers cross-node
    GLOBAL saves as intents and replays them at each epoch barrier in
    [(ts, node, order)] order. That makes execution deterministic —
    but a spec whose nodes write the {e same} GLOBAL key with
    {e different} values at the {e same} instant is deterministic
    only by accident of that tie-break: swap two node ids and the
    merged value changes.

    [GRL301] (warning) fires when, for some GLOBAL key:
    - at least two distinct nodes SAVE it,
    - the writes are not provably commutative (all writers the same
      single constant under the {!Dataflow} fixpoint),
    - two writers' check instants can coincide — two timer grids
      share an instant iff [(s2 − s1) mod gcd(i1, i2) = 0] (the
      earliest one is reported); ON_CHANGE and FUNCTION triggers can
      coincide with anything — and
    - some monitor reads the key order-sensitively: LOAD (last write
      wins) or DELTA (first vs last of the window). The multiset
      aggregates are insensitive to same-timestamp ordering and
      don't count. *)

val check : Dataflow.t -> nodes:int array -> Diagnostic.t list
(** [check df ~nodes] over the fixpoint of the fleet deployment after
    {!Gr_compiler.Monitor.qualify}; [nodes.(i)] is the node id of the
    deployment's monitor [i]. Diagnostics in first-written-key order,
    deterministic. *)
