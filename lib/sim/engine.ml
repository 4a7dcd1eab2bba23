open Gr_util

(* The event queue is a slot pool plus a binary min-heap of instant
   runs.

   Each scheduled event owns a slot for as long as it is queued or
   running: the slot arrays hold its callback, its period (0 for a
   one-shot event), the exclusive [stop] bound of a periodic event, a
   generation that is bumped whenever the slot is freed, and the
   [order] drawn when it was last queued.

   A run is a FIFO of slots queued one after another for one instant,
   linked through [next] and [prev]. A push at the instant of the
   last-touched run (the one [tail] ends) appends to it; any other
   push opens a run. The heap holds one entry per run, named by its
   head slot ([pos] is the head's heap position, -1 for any other
   slot) and keyed by [(time, order of the run's first slot)] in [int]
   arrays, so sifting is plain integer compares and moves. Orders rise
   with every push and a run takes pushes only while it is the
   last-touched one, so every slot of a run comes before every slot of
   any later run at its instant: popping the root run's head, and
   handing the heap entry to the next slot without a sift, keeps the
   pop order exactly [(time, order)]. A run that empties leaves the
   heap.

   A periodic timer keeps its slot and closure for life and re-arms
   in place, so steady-state dispatch allocates nothing. A handle
   names [(slot, gen)]; once the slot is freed the generation no
   longer matches and the handle is inert. *)
type t = {
  mutable clock : Time_ns.t;
  mutable seq : int;
  mutable fired : int;
  mutable queued : int;
  mutable tracer : Gr_trace.Tracer.t option;
  (* slot pool *)
  mutable run : (t -> unit) array;
  mutable period : int array;
  mutable stop : Time_ns.t array;
  mutable gen : int array;
  mutable order : int array;
  mutable next : int array; (* next slot of its run, -1 at the tail *)
  mutable prev : int array; (* previous slot of its run, -1 at its head (and so while running) *)
  mutable pos : int array;
  mutable free : int array;
  mutable nfree : int;
  (* the last-touched run's tail slot (-1 if that run has emptied) and instant *)
  mutable tail : int;
  mutable tail_time : Time_ns.t;
  (* heap of runs, by position *)
  mutable key_time : Time_ns.t array;
  mutable key_order : int array;
  mutable slot : int array;
  mutable len : int;
}

type handle = { engine : t; h_slot : int; h_gen : int }

let nop (_ : t) = ()

let create () =
  {
    clock = Time_ns.zero;
    seq = 0;
    fired = 0;
    queued = 0;
    tracer = None;
    run = [||];
    period = [||];
    stop = [||];
    gen = [||];
    order = [||];
    next = [||];
    prev = [||];
    pos = [||];
    free = [||];
    nfree = 0;
    tail = -1;
    tail_time = 0;
    key_time = [||];
    key_order = [||];
    slot = [||];
    len = 0;
  }

let set_tracer t tracer = t.tracer <- Some tracer

let now t = t.clock

(* ---------- heap of runs over (time, order) ---------- *)

let[@inline] before (ta : int) (oa : int) (tb : int) (ob : int) =
  ta < tb || (ta = tb && oa < ob)

let[@inline] place t i time order s =
  t.key_time.(i) <- time;
  t.key_order.(i) <- order;
  t.slot.(i) <- s;
  t.pos.(s) <- i

(* Both sifts carry the moving entry in registers and fill the hole
   it leaves, writing each visited position once. *)
let rec sift_up t i time order s =
  if i = 0 then place t 0 time order s
  else
    let p = (i - 1) / 2 in
    let pt = t.key_time.(p) and po = t.key_order.(p) in
    if before time order pt po then begin
      place t i pt po t.slot.(p);
      sift_up t p time order s
    end
    else place t i time order s

let rec sift_down t i time order s =
  let l = (2 * i) + 1 in
  if l >= t.len then place t i time order s
  else
    let r = l + 1 in
    let c =
      if r < t.len && before t.key_time.(r) t.key_order.(r) t.key_time.(l) t.key_order.(l)
      then r
      else l
    in
    let ct = t.key_time.(c) and co = t.key_order.(c) in
    if before ct co time order then begin
      place t i ct co t.slot.(c);
      sift_down t c time order s
    end
    else place t i time order s

let remove_at t i =
  let last = t.len - 1 in
  t.len <- last;
  if i < last then begin
    let time = t.key_time.(last) and order = t.key_order.(last) and s = t.slot.(last) in
    let p = (i - 1) / 2 in
    if i > 0 && before time order t.key_time.(p) t.key_order.(p) then sift_up t i time order s
    else sift_down t i time order s
  end

(* ---------- instant runs ---------- *)

let push t s time =
  let order = t.seq in
  t.seq <- order + 1;
  t.queued <- t.queued + 1;
  t.order.(s) <- order;
  t.next.(s) <- -1;
  let tl = t.tail in
  if tl >= 0 && t.tail_time = time then begin
    t.next.(tl) <- s;
    t.prev.(s) <- tl
  end
  else begin
    t.prev.(s) <- -1;
    t.tail_time <- time;
    let i = t.len in
    t.len <- i + 1;
    sift_up t i time order s
  end;
  t.tail <- s

(* Takes the head [s] of the run at heap position [i] off the queue.
   The next slot of the run inherits the heap entry, key included, in
   place; a run that empties leaves the heap. *)
let pop_head t i s =
  t.queued <- t.queued - 1;
  t.pos.(s) <- -1;
  let n = t.next.(s) in
  if n >= 0 then begin
    t.prev.(n) <- -1;
    t.slot.(i) <- n;
    t.pos.(n) <- i
  end
  else begin
    if t.tail = s then t.tail <- -1;
    remove_at t i
  end

(* Unlinks a queued slot that is not its run's head. *)
let unlink t s =
  t.queued <- t.queued - 1;
  let p = t.prev.(s) and n = t.next.(s) in
  t.next.(p) <- n;
  if n >= 0 then t.prev.(n) <- p else if t.tail = s then t.tail <- p

(* ---------- slot pool ---------- *)

let grow t =
  let cap = Array.length t.gen in
  let ncap = max 16 (2 * cap) in
  let extend a fill =
    let b = Array.make ncap fill in
    Array.blit a 0 b 0 cap;
    b
  in
  t.run <- extend t.run nop;
  t.period <- extend t.period 0;
  t.stop <- extend t.stop 0;
  t.gen <- extend t.gen 0;
  t.order <- extend t.order 0;
  t.next <- extend t.next (-1);
  t.prev <- extend t.prev (-1);
  t.pos <- extend t.pos (-1);
  t.free <- extend t.free 0;
  t.key_time <- extend t.key_time 0;
  t.key_order <- extend t.key_order 0;
  t.slot <- extend t.slot 0;
  (* [grow] runs only when no slot is free; stack the new ones so the
     lowest index is handed out first. *)
  for s = ncap - 1 downto cap do
    t.free.(t.nfree) <- s;
    t.nfree <- t.nfree + 1
  done

let release t s =
  t.gen.(s) <- t.gen.(s) + 1;
  t.run.(s) <- nop;
  t.free.(t.nfree) <- s;
  t.nfree <- t.nfree + 1

let arm t run ~period ~stop time =
  if t.nfree = 0 then grow t;
  t.nfree <- t.nfree - 1;
  let s = t.free.(t.nfree) in
  t.run.(s) <- run;
  t.period.(s) <- period;
  t.stop.(s) <- stop;
  push t s time;
  { engine = t; h_slot = s; h_gen = t.gen.(s) }

(* ---------- public API ---------- *)

let schedule_at t time fn =
  if Time_ns.compare time t.clock < 0 then
    invalid_arg "Engine.schedule_at: time is in the past";
  arm t fn ~period:0 ~stop:max_int time

let schedule_after t delay fn = schedule_at t (Time_ns.add t.clock delay) fn

let every t ?start ?stop ~interval fn =
  if interval <= 0 then invalid_arg "Engine.every: interval must be positive";
  let first =
    match start with
    | Some s -> Time_ns.max s t.clock
    | None -> Time_ns.add t.clock interval
  in
  let stop = Option.value stop ~default:max_int in
  if Time_ns.compare first stop < 0 then arm t fn ~period:interval ~stop first
  else { engine = t; h_slot = -1; h_gen = 0 }

let cancel h =
  let t = h.engine and s = h.h_slot in
  if s >= 0 && t.gen.(s) = h.h_gen then begin
    if t.prev.(s) >= 0 then unlink t s
    else begin
      let i = t.pos.(s) in
      if i >= 0 then pop_head t i s
    end;
    release t s
  end

let next_event_time t = if t.len = 0 then None else Some t.key_time.(0)

let dispatch t run order =
  match t.tracer with
  | Some tr when Gr_trace.Tracer.enabled tr ->
    (* Each dispatch roots a causal tree: everything the handler
       does (hook fires, checks, actions, saves) parents back to
       this span, directly or transitively. *)
    let span = Gr_trace.Tracer.fresh_span tr in
    Gr_trace.Tracer.instant tr ~cat:"sim"
      ~args:[ ("seq", Gr_trace.Event.Int order) ]
      ~span "dispatch";
    Gr_trace.Tracer.with_parent tr (Some span) (fun () -> run t)
  | _ -> run t

let step t =
  if t.len = 0 then false
  else begin
    let s = t.slot.(0) and time = t.key_time.(0) in
    pop_head t 0 s;
    let run = t.run.(s) and period = t.period.(s) and order = t.order.(s) in
    t.clock <- time;
    t.fired <- t.fired + 1;
    if period = 0 then begin
      release t s;
      dispatch t run order
    end
    else begin
      let g = t.gen.(s) in
      dispatch t run order;
      (* Re-arm unless the callback cancelled its own handle. The
         fresh order is drawn after [run] returns, so events the
         callback scheduled for the same instant stay ahead of it. *)
      if t.gen.(s) = g then begin
        let next = Time_ns.add time period in
        if next < t.stop.(s) then push t s next else release t s
      end
    end;
    true
  end

let run_until t limit =
  while t.len > 0 && t.key_time.(0) <= limit do
    ignore (step t : bool)
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
  (* [run_epochs] over one engine on a pool without workers. Because
     [run_until] fires every event <= the boundary and then just clamps
     the clock, the event stream (and any trace of it) is byte-identical
     to one big [run_until limit] — the barrier is a pure decision
     point, which is what lets grc serve's rollout state machine ride a
     --nodes 1 deployment without perturbing it. *)
  Pool.with_pool ~domains:1 (fun pool -> run_epochs ~pool ~epoch ~limit ~at_barrier [| t |])

let pending t = t.queued

let events_fired t = t.fired
