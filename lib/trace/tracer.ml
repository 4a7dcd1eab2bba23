(* Causal provenance context. Span ids are allocated in emission
   order, which the sim clock makes deterministic: the same seed
   replays the same dispatch sequence, hence the same ids.

   In a fleet each tracer (control and every node) owns a private
   context on a disjoint arithmetic channel: channel [c] of [stride]
   allocates ids [c, c + stride, c + 2*stride, ..] so merged traces
   carry globally unique, reproducible span ids (the id mod stride
   recovers the emitting channel) without any cross-domain
   coordination. *)
type span_ctx = { mutable next_span : int; stride : int; mutable current : int option }

let create_ctx ?(offset = 0) ?(stride = 1) () = { next_span = offset; stride; current = None }

type t = {
  clock : unit -> Gr_util.Time_ns.t;
  events : Sink.t;
  reports : Sink.t;
  metrics : Metrics.t;
  mutable enabled : bool;
  node_id : int option;
  mutable ctx : span_ctx;
  (* Tail of the provenance args, [("parent", _); ("node", _)], cached
     per parent: args lists are immutable so every sibling event in a
     causal scope can share the same cells, and steady-state tagging
     allocates only the leading span cell. *)
  node_tail : (string * Event.arg) list;
  mutable memo_parent : int;
  mutable memo_tail : (string * Event.arg) list;
}

let create ~clock ?(capacity = 65536) ?overflow ?(enabled = false) ?node_id () =
  let metrics = match node_id with Some id -> Metrics.for_node id | None -> Metrics.create () in
  {
    clock;
    events = Sink.create ~capacity ?overflow ();
    reports = Sink.create ~capacity:16384 ?overflow ();
    metrics;
    enabled;
    node_id;
    ctx = create_ctx ();
    node_tail = (match node_id with None -> [] | Some id -> [ ("node", Event.Int id) ]);
    memo_parent = min_int;
    memo_tail = [];
  }

let enabled t = t.enabled
let set_enabled t on = t.enabled <- on
let clock t = t.clock
let events t = t.events
let reports t = t.reports
let metrics t = t.metrics
let node_id t = t.node_id

let set_span_channel t ~offset ~stride =
  if offset < 0 || stride < 1 || offset >= stride then
    invalid_arg "Tracer.set_span_channel: need 0 <= offset < stride";
  t.ctx <- create_ctx ~offset ~stride ()

let fresh_span t =
  let id = t.ctx.next_span in
  t.ctx.next_span <- id + t.ctx.stride;
  id

(* [None] leaves the current parent as it is: untraced callers pass
   the [None] their span allocation returned. *)
let with_parent t span f =
  match span with
  | None -> f ()
  | Some _ ->
    let prev = t.ctx.current in
    t.ctx.current <- span;
    Fun.protect ~finally:(fun () -> t.ctx.current <- prev) f

(* Provenance + fleet tagging: each recorded event carries its own
   span id, the span id of the event that caused it (when inside a
   causal context), and — on fleet nodes — the node id, so merged
   traces stay both attributable and reconstructable as decision
   trees. Bookkeeping is only reachable when the tracer is enabled;
   disabled emission stays one branch. *)
let tag t ?span ?parent args =
  let span = match span with Some s -> s | None -> fresh_span t in
  let parent = match parent with Some _ as p -> p | None -> t.ctx.current in
  (* Built back to front so the trailing cells are shared, never
     copied: the parent/node tail is memoized per parent (siblings of
     one causal scope hit the cache), so steady-state tagging
     allocates the span cell plus the append of the caller's own
     args, typically 0-3 cells. *)
  let rest =
    match parent with
    | None -> t.node_tail
    | Some p ->
      if p = t.memo_parent then t.memo_tail
      else begin
        let tail = ("parent", Event.Int p) :: t.node_tail in
        t.memo_parent <- p;
        t.memo_tail <- tail;
        tail
      end
  in
  let prov = ("span", Event.Int span) :: rest in
  let tagged = match args with None -> prov | Some l -> l @ prov in
  Some tagged

let emit t ?dur_ns ?args ?span ?parent ~cat ~ph name =
  if t.enabled then begin
    let args = tag t ?span ?parent args in
    Sink.emit t.events (Event.make ~ts:(t.clock ()) ?dur_ns ?args ~cat ~ph name)
  end

let instant t ~cat ?args ?span ?parent name = emit t ?args ?span ?parent ~cat ~ph:Event.Instant name

let counter t ~cat ?span name series =
  emit t
    ~args:(List.map (fun (k, v) -> (k, Event.Float v)) series)
    ?span ~cat ~ph:Event.Counter name

let complete t ~cat ~dur_ns ?args ?span ?parent name =
  emit t ~dur_ns ?args ?span ?parent ~cat ~ph:Event.Complete name

let span_begin t ~cat ?args ?span name = emit t ?args ?span ~cat ~ph:Event.Begin name
let span_end t ~cat name = emit t ~cat ~ph:Event.End name

let with_span t ~cat ?args name f =
  if not t.enabled then f ()
  else begin
    (* The span's own id becomes the causal parent of everything the
       body emits (listener checks, saves, nested hook fires); the
       End event is emitted inside the context so it ties into the
       same tree. *)
    let span = fresh_span t in
    span_begin t ~cat ?args ~span name;
    with_parent t (Some span) (fun () -> Fun.protect ~finally:(fun () -> span_end t ~cat name) f)
  end

let report t ?args name =
  (* Reports flow whether or not tracing is on; they only carry
     provenance args when it is, keeping untraced output byte-stable. *)
  let args =
    if t.enabled then tag t args
    else
      match t.node_id with
      | None -> args
      | Some id ->
        let nd = ("node", Event.Int id) in
        Some (match args with None -> [ nd ] | Some l -> l @ [ nd ])
  in
  Sink.emit t.reports (Event.make ~ts:(t.clock ()) ?args ~cat:"report" ~ph:Event.Instant name)
