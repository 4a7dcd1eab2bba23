type args = (string * float) list

type listener = { id : int; fn : args -> unit; mutable strikes : int }

type point = { mutable listeners : listener list; mutable fired : int }

type t = {
  points : (string, point) Hashtbl.t;
  mutable next_id : int;
  mutable tracer : Gr_trace.Tracer.t option;
  mutable max_strikes : int;
  mutable contained_exns : int;
  mutable quarantined : int;
}

type subscription = { hook : string; listener_id : int }

let create () =
  {
    points = Hashtbl.create 64;
    next_id = 0;
    tracer = None;
    max_strikes = 3;
    contained_exns = 0;
    quarantined = 0;
  }

let set_tracer t tracer = t.tracer <- Some tracer
let tracer t = t.tracer

let set_max_strikes t n =
  if n <= 0 then invalid_arg "Hooks.set_max_strikes: must be positive";
  t.max_strikes <- n

let point t name =
  match Hashtbl.find_opt t.points name with
  | Some p -> p
  | None ->
    let p = { listeners = []; fired = 0 } in
    Hashtbl.add t.points name p;
    p

let subscribe t name fn =
  let p = point t name in
  let id = t.next_id in
  t.next_id <- id + 1;
  (* Keep subscription order: append. Lists are short (a few monitors
     per hook), so the O(n) append is irrelevant. *)
  p.listeners <- p.listeners @ [ { id; fn; strikes = 0 } ];
  { hook = name; listener_id = id }

let unsubscribe t sub =
  match Hashtbl.find_opt t.points sub.hook with
  | None -> ()
  | Some p -> p.listeners <- List.filter (fun l -> l.id <> sub.listener_id) p.listeners

let listener_id sub = sub.listener_id

(* Whether [sub]'s listener is still the hook's last: then anything it
   runs for a new member runs exactly where a new subscription would. *)
let extend t sub =
  let last p = match List.rev p.listeners with l :: _ -> l.id = sub.listener_id | [] -> false in
  match Hashtbl.find_opt t.points sub.hook with
  | Some p when last p ->
    let id = t.next_id in
    t.next_id <- id + 1;
    Some id
  | _ -> None

(* A listener that raises must not take the kernel down with it — a
   crashing probe handler is the probe's bug, not a panic (the real
   kernel likewise contains a faulting BPF program). The exception is
   counted, traced, and after [max_strikes] faults the listener is
   quarantined: unsubscribed for good, like the kernel disabling a
   misbehaving kprobe. Fault-injection soaks reconcile these counters
   against the faults they injected, so a *real* listener bug still
   fails the run — it is accounted for, not swallowed. *)
let contain t name ~listener ~strikes exn =
  t.contained_exns <- t.contained_exns + 1;
  let quarantine = strikes >= t.max_strikes in
  if quarantine then t.quarantined <- t.quarantined + 1;
  (match t.tracer with
  | Some tr when Gr_trace.Tracer.enabled tr ->
    Gr_trace.Tracer.instant tr ~cat:"hook"
      ~args:
        [
          ("hook", Gr_trace.Event.Str name);
          ("listener", Gr_trace.Event.Int listener);
          ("exn", Gr_trace.Event.Str (Printexc.to_string exn));
          ("strikes", Gr_trace.Event.Int strikes);
          ("quarantined", Gr_trace.Event.Bool quarantine);
        ]
      "hook.listener_exn"
  | _ -> ());
  quarantine

let dispatch t name p args =
  List.iter
    (fun l ->
      try l.fn args
      with exn ->
        l.strikes <- l.strikes + 1;
        if contain t name ~listener:l.id ~strikes:l.strikes exn then
          p.listeners <- List.filter (fun l' -> l'.id <> l.id) p.listeners)
    p.listeners

let fire t name args =
  let p = point t name in
  p.fired <- p.fired + 1;
  match t.tracer with
  | Some tr when Gr_trace.Tracer.enabled tr && p.listeners <> [] ->
    (* Entry/exit span around listener dispatch: this is the FUNCTION
       trigger's kprobe-style entry and exit on the sim timeline.
       Unsubscribed hook firings stay untraced — they are the kernel's
       ambient call traffic, not guardrail activity. *)
    Gr_trace.Tracer.with_span tr ~cat:"hook"
      ~args:(List.map (fun (k, v) -> (k, Gr_trace.Event.Float v)) args)
      name
      (fun () -> dispatch t name p args)
  | _ -> dispatch t name p args

let fire_count t name =
  match Hashtbl.find_opt t.points name with None -> 0 | Some p -> p.fired

let contained_exn_count t = t.contained_exns
let quarantined_count t = t.quarantined

let known_hooks t = List.of_seq (Hashtbl.to_seq_keys t.points)
