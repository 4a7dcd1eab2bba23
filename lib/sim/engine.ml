open Gr_util

type t = {
  mutable clock : Time_ns.t;
  mutable seq : int;
  mutable fired : int;
  mutable cancelled : int;
  queue : event Heap.t;
  mutable tracer : Gr_trace.Tracer.t option;
}

and event = {
  time : Time_ns.t;
  order : int;
  run : t -> unit;
  mutable live : bool;
}

type handle = { mutable target : event }

let compare_event a b =
  match Time_ns.compare a.time b.time with 0 -> Int.compare a.order b.order | c -> c

let create () =
  {
    clock = Time_ns.zero;
    seq = 0;
    fired = 0;
    cancelled = 0;
    queue = Heap.create ~cmp:compare_event;
    tracer = None;
  }

let set_tracer t tracer = t.tracer <- Some tracer
let clear_tracer t = t.tracer <- None
let tracer t = t.tracer

let now t = t.clock

let enqueue t time run =
  if Time_ns.compare time t.clock < 0 then
    invalid_arg "Engine.schedule_at: time is in the past";
  let ev = { time; order = t.seq; run; live = true } in
  t.seq <- t.seq + 1;
  Heap.add t.queue ev;
  ev

let schedule_at t time fn = { target = enqueue t time fn }
let schedule_after t delay fn = schedule_at t (Time_ns.add t.clock delay) fn

let every t ?start ?stop ~interval fn =
  if interval <= 0 then invalid_arg "Engine.every: interval must be positive";
  let first =
    match start with
    | Some s -> Time_ns.max s t.clock
    | None -> Time_ns.add t.clock interval
  in
  let allowed time = match stop with None -> true | Some s -> Time_ns.compare time s < 0 in
  let rec tick handle time engine =
    fn engine;
    let next = Time_ns.add time interval in
    if allowed next then handle.target <- enqueue engine next (tick handle next)
  in
  if allowed first then begin
    let rec handle = { target = ev }
    and ev = { time = first; order = t.seq; run = (fun e -> tick handle first e); live = true } in
    t.seq <- t.seq + 1;
    Heap.add t.queue ev;
    handle
  end
  else { target = { time = first; order = -1; run = (fun _ -> ()); live = false } }

let cancel handle = handle.target.live <- false

(* Discard cancelled tombstones sitting at the head of the queue so
   that peeking reports the next event that will actually run — a
   tombstone's timestamp must not drive [run_until]'s limit check or a
   caller's own stepping loop past the limit. *)
let rec drop_tombstones t =
  match Heap.peek t.queue with
  | Some ev when not ev.live ->
    ignore (Heap.pop t.queue : event option);
    t.cancelled <- t.cancelled + 1;
    drop_tombstones t
  | Some _ | None -> ()

let next_event_time t =
  drop_tombstones t;
  match Heap.peek t.queue with Some ev -> Some ev.time | None -> None

let rec step t =
  match Heap.pop t.queue with
  | None -> false
  | Some ev ->
    if not ev.live then begin
      t.cancelled <- t.cancelled + 1;
      step t
    end
    else begin
      t.clock <- ev.time;
      t.fired <- t.fired + 1;
      (match t.tracer with
      | Some tr when Gr_trace.Tracer.enabled tr ->
        (* Each dispatch roots a causal tree: everything the handler
           does (hook fires, checks, actions, saves) parents back to
           this span, directly or transitively. *)
        let span = Gr_trace.Tracer.fresh_span tr in
        Gr_trace.Tracer.instant tr ~cat:"sim"
          ~args:[ ("seq", Gr_trace.Event.Int ev.order) ]
          ~span "dispatch";
        let prev = Gr_trace.Tracer.current_span tr in
        Gr_trace.Tracer.set_current tr (Some span);
        Fun.protect
          ~finally:(fun () -> Gr_trace.Tracer.set_current tr prev)
          (fun () -> ev.run t)
      | _ -> ev.run t);
      true
    end

let run_until t limit =
  let continue = ref true in
  while !continue do
    match next_event_time t with
    | Some time when Time_ns.compare time limit <= 0 -> ignore (step t : bool)
    | Some _ | None -> continue := false
  done;
  if Time_ns.compare t.clock limit < 0 then t.clock <- limit

let run t = while step t do () done

let run_epochs ~pool ~epoch ~limit ~at_barrier engines =
  (* Lock-step epoch loop for the fleet (docs/PARALLEL.md):
     every engine in [engines] advances to the same epoch boundary on
     the pool — each owns a disjoint event set, so the only sharing is
     the barrier itself — then [at_barrier] runs sequentially on the
     calling domain to apply buffered cross-engine effects and advance
     whatever sequential engine (the fleet's control plane) rides
     between the boundaries. Determinism does not depend on the pool's
     task-to-domain mapping because each engine's event stream is
     node-local by construction. *)
  if Time_ns.compare epoch Time_ns.zero <= 0 then
    invalid_arg "Engine.run_epochs: epoch must be positive";
  let n = Array.length engines in
  let start = Array.fold_left (fun acc e -> Time_ns.max acc (now e)) Time_ns.zero engines in
  let t = ref start in
  while Time_ns.compare !t limit < 0 do
    let boundary = Time_ns.min (Time_ns.add !t epoch) limit in
    Pool.run pool (fun i -> run_until engines.(i) boundary) n;
    at_barrier boundary;
    t := boundary
  done

let run_chunked t ~epoch ~limit ~at_barrier =
  (* Single-engine sibling of [run_epochs]: advance one engine in
     epoch-sized chunks, calling [at_barrier] at every boundary.
     Because [run_until] fires every event <= the boundary and then
     just clamps the clock, the event stream (and any trace of it) is
     byte-identical to one big [run_until limit] — the barrier is a
     pure decision point, which is what lets grc serve's rollout
     state machine ride a --nodes 1 deployment without perturbing
     it. The last boundary is exactly [limit]. *)
  if Time_ns.compare epoch Time_ns.zero <= 0 then
    invalid_arg "Engine.run_chunked: epoch must be positive";
  let t' = ref (now t) in
  while Time_ns.compare !t' limit < 0 do
    let boundary = Time_ns.min (Time_ns.add !t' epoch) limit in
    run_until t boundary;
    at_barrier boundary;
    t' := boundary
  done

let pending t =
  (* Heap may contain cancelled tombstones; count live ones. *)
  List.length (List.filter (fun ev -> ev.live) (Heap.to_sorted_list t.queue))

let events_fired t = t.fired
