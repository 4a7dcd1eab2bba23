(* Tests for gr_sim: the discrete-event engine. *)

open Gr_util
module Engine = Gr_sim.Engine

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_fires_in_time_order () =
  let e = Engine.create () in
  let order = ref [] in
  ignore (Engine.schedule_at e (Time_ns.ms 30) (fun _ -> order := 30 :: !order) : Engine.handle);
  ignore (Engine.schedule_at e (Time_ns.ms 10) (fun _ -> order := 10 :: !order) : Engine.handle);
  ignore (Engine.schedule_at e (Time_ns.ms 20) (fun _ -> order := 20 :: !order) : Engine.handle);
  Engine.run e;
  Alcotest.(check (list int)) "time order" [ 10; 20; 30 ] (List.rev !order)

let test_fifo_tie_break () =
  let e = Engine.create () in
  let order = ref [] in
  for i = 1 to 5 do
    ignore (Engine.schedule_at e (Time_ns.ms 5) (fun _ -> order := i :: !order) : Engine.handle)
  done;
  Engine.run e;
  Alcotest.(check (list int)) "FIFO at equal time" [ 1; 2; 3; 4; 5 ] (List.rev !order)

let test_clock_advances () =
  let e = Engine.create () in
  let seen = ref Time_ns.zero in
  ignore (Engine.schedule_at e (Time_ns.ms 7) (fun e -> seen := Engine.now e) : Engine.handle);
  Engine.run e;
  check_int "clock at event time" (Time_ns.ms 7) !seen;
  check_int "clock stays" (Time_ns.ms 7) (Engine.now e)

let test_schedule_in_past_rejected () =
  let e = Engine.create () in
  ignore (Engine.schedule_at e (Time_ns.ms 5) (fun _ -> ()) : Engine.handle);
  Engine.run e;
  Alcotest.check_raises "past scheduling"
    (Invalid_argument "Engine.schedule_at: time is in the past") (fun () ->
      ignore (Engine.schedule_at e (Time_ns.ms 1) (fun _ -> ()) : Engine.handle))

let test_schedule_after () =
  let e = Engine.create () in
  let at = ref Time_ns.zero in
  ignore
    (Engine.schedule_at e (Time_ns.ms 10) (fun e ->
         ignore (Engine.schedule_after e (Time_ns.ms 5) (fun e -> at := Engine.now e) : Engine.handle))
      : Engine.handle);
  Engine.run e;
  check_int "relative delay" (Time_ns.ms 15) !at

let test_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let h = Engine.schedule_at e (Time_ns.ms 10) (fun _ -> fired := true) in
  Engine.cancel h;
  Engine.cancel h (* idempotent *);
  Engine.run e;
  check_bool "cancelled event never fires" false !fired

let test_run_until_stops_and_advances () =
  let e = Engine.create () in
  let count = ref 0 in
  ignore (Engine.every e ~interval:(Time_ns.ms 10) (fun _ -> incr count) : Engine.handle);
  Engine.run_until e (Time_ns.ms 35);
  check_int "three periodic firings" 3 !count;
  check_int "clock advanced to limit" (Time_ns.ms 35) (Engine.now e);
  Engine.run_until e (Time_ns.ms 40);
  check_int "resumes correctly" 4 !count

let test_every_start_stop () =
  let e = Engine.create () in
  let times = ref [] in
  ignore
    (Engine.every e ~start:(Time_ns.ms 5) ~stop:(Time_ns.ms 26) ~interval:(Time_ns.ms 10)
       (fun e -> times := Engine.now e :: !times)
      : Engine.handle);
  Engine.run e;
  Alcotest.(check (list int)) "start/stop respected"
    [ Time_ns.ms 5; Time_ns.ms 15; Time_ns.ms 25 ]
    (List.rev !times)

let test_every_cancel_mid_stream () =
  let e = Engine.create () in
  let count = ref 0 in
  let h = Engine.every e ~interval:(Time_ns.ms 10) (fun _ -> incr count) in
  ignore (Engine.schedule_at e (Time_ns.ms 25) (fun _ -> Engine.cancel h) : Engine.handle);
  Engine.run_until e (Time_ns.ms 100);
  check_int "stopped after cancel" 2 !count

let test_every_invalid_interval () =
  let e = Engine.create () in
  Alcotest.check_raises "non-positive interval"
    (Invalid_argument "Engine.every: interval must be positive") (fun () ->
      ignore (Engine.every e ~interval:0 (fun _ -> ()) : Engine.handle))

let test_events_fired_counter () =
  let e = Engine.create () in
  for i = 1 to 4 do
    ignore (Engine.schedule_at e (Time_ns.ms i) (fun _ -> ()) : Engine.handle)
  done;
  Engine.run e;
  check_int "fired count" 4 (Engine.events_fired e)

let test_nested_scheduling_cascade () =
  let e = Engine.create () in
  let depth = ref 0 in
  let rec go n engine =
    depth := n;
    if n < 10 then
      ignore (Engine.schedule_after engine (Time_ns.us 1) (go (n + 1)) : Engine.handle)
  in
  ignore (Engine.schedule_at e 0 (go 1) : Engine.handle);
  Engine.run e;
  check_int "cascade completes" 10 !depth;
  check_int "time accumulated" (Time_ns.us 9) (Engine.now e)

let test_every_cancel_from_own_callback () =
  let e = Engine.create () in
  let count = ref 0 in
  let self = ref None in
  self :=
    Some
      (Engine.every e ~interval:(Time_ns.ms 10) (fun _ ->
           incr count;
           if !count = 2 then Option.iter Engine.cancel !self));
  Engine.run_until e (Time_ns.ms 100);
  check_int "fires twice, then stops" 2 !count;
  check_int "nothing pending" 0 (Engine.pending e)

(* ---------- handle generations ---------- *)

let test_stale_handle_spares_reused_slot () =
  let e = Engine.create () in
  let old = Engine.schedule_at e (Time_ns.ms 10) (fun _ -> ()) in
  Engine.run_until e (Time_ns.ms 10);
  let fired = ref false in
  ignore (Engine.schedule_at e (Time_ns.ms 20) (fun _ -> fired := true) : Engine.handle);
  Engine.cancel old;
  check_int "new event still pending" 1 (Engine.pending e);
  Engine.run e;
  check_bool "new event fires" true !fired

let test_cancel_every_born_past_stop () =
  let e = Engine.create () in
  let fired = ref false in
  ignore (Engine.schedule_at e (Time_ns.ms 5) (fun _ -> fired := true) : Engine.handle);
  let h =
    Engine.every e ~start:(Time_ns.ms 30) ~stop:(Time_ns.ms 30) ~interval:(Time_ns.ms 10)
      (fun _ -> Alcotest.fail "fired at or after stop")
  in
  check_int "only the one-shot is queued" 1 (Engine.pending e);
  Engine.cancel h;
  check_int "cancel is a no-op" 1 (Engine.pending e);
  Engine.run e;
  check_bool "other event unaffected" true !fired

let test_next_event_time_after_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let h = Engine.schedule_at e (Time_ns.ms 10) (fun _ -> ()) in
  Engine.cancel h;
  ignore (Engine.schedule_at e (Time_ns.ms 100) (fun _ -> fired := true) : Engine.handle);
  Alcotest.(check (option int)) "next event is the live one" (Some (Time_ns.ms 100))
    (Engine.next_event_time e);
  Engine.run_until e (Time_ns.ms 50);
  check_bool "event past the limit did not fire" false !fired;
  check_int "clock advanced exactly to the limit" (Time_ns.ms 50) (Engine.now e);
  Engine.run_until e (Time_ns.ms 100);
  check_bool "event fires once the limit reaches it" true !fired

(* ---------- instant runs ---------- *)

(* Schedules one logging event per name at [time]; returns the handles. *)
let log_at e log time names =
  List.map (fun n -> Engine.schedule_at e time (fun _ -> log := n :: !log)) names

(* Schedules [name] at [time]; when it fires it schedules [spawned] at
   that same instant. *)
let log_spawning e log time name spawned =
  ignore
    (Engine.schedule_at e time (fun e ->
         log := name :: !log;
         ignore (log_at e log time [ spawned ] : Engine.handle list))
      : Engine.handle)

let test_run_cancel_head_middle_tail () =
  let e = Engine.create () in
  let log = ref [] in
  let hs = log_at e log (Time_ns.ms 5) [ "a"; "b"; "c"; "d"; "e" ] in
  let h i = List.nth hs i in
  Engine.cancel (h 0);
  check_int "head cancelled" 4 (Engine.pending e);
  Engine.cancel (h 2);
  check_int "middle cancelled" 3 (Engine.pending e);
  Engine.cancel (h 4);
  check_int "tail cancelled" 2 (Engine.pending e);
  (* The run's tail is now "d": a push at its instant lands behind it. *)
  ignore (log_at e log (Time_ns.ms 5) [ "f" ] : Engine.handle list);
  check_int "appended" 3 (Engine.pending e);
  Engine.run e;
  Alcotest.(check (list string)) "survivors in FIFO order" [ "b"; "d"; "f" ] (List.rev !log);
  check_int "drained" 0 (Engine.pending e)

let test_second_run_at_one_instant () =
  let e = Engine.create () in
  let log = ref [] in
  let t = Time_ns.ms 5 in
  (* "z" holds the heap root at 1 ms. "a" and "b" form one run at 5 ms;
     "d" opens a second run there and "e" joins it. The push "a" makes
     at 5 ms belongs behind "e", not in the run then at the heap root. *)
  ignore (log_at e log (Time_ns.ms 1) [ "z" ] : Engine.handle list);
  log_spawning e log t "a" "x";
  ignore (log_at e log t [ "b" ] : Engine.handle list);
  ignore (log_at e log (Time_ns.ms 9) [ "c" ] : Engine.handle list);
  ignore (log_at e log t [ "d"; "e" ] : Engine.handle list);
  check_int "six queued" 6 (Engine.pending e);
  Engine.run e;
  Alcotest.(check (list string)) "(time, order)"
    [ "z"; "a"; "b"; "d"; "e"; "x"; "c" ]
    (List.rev !log)

let test_same_instant_push_from_callback () =
  let e = Engine.create () in
  let log = ref [] in
  (* First with the root run still the last-touched one, then with a
     later push between them, so the callback's push opens a run. *)
  log_spawning e log (Time_ns.ms 5) "a" "x";
  ignore (log_at e log (Time_ns.ms 5) [ "b"; "c" ] : Engine.handle list);
  Engine.run e;
  log_spawning e log (Time_ns.ms 10) "p" "y";
  ignore (log_at e log (Time_ns.ms 10) [ "q" ] : Engine.handle list);
  ignore (log_at e log (Time_ns.ms 20) [ "z" ] : Engine.handle list);
  Engine.run e;
  Alcotest.(check (list string)) "behind every queued slot"
    [ "a"; "b"; "c"; "x"; "p"; "q"; "y"; "z" ]
    (List.rev !log)

let test_next_event_time_after_cancelling_a_run () =
  let e = Engine.create () in
  let log = ref [] in
  let hs = log_at e log (Time_ns.ms 5) [ "a"; "b"; "c" ] in
  ignore (log_at e log (Time_ns.ms 8) [ "d" ] : Engine.handle list);
  List.iter Engine.cancel [ List.nth hs 1; List.nth hs 2; List.nth hs 0 ];
  check_int "one left" 1 (Engine.pending e);
  Alcotest.(check (option int)) "the run's instant is gone" (Some (Time_ns.ms 8))
    (Engine.next_event_time e);
  Engine.run e;
  Alcotest.(check (list string)) "only d fired" [ "d" ] !log

let test_aligned_dispatch_seq () =
  (* Traced dispatches carry each slot's own order, not its run's. *)
  let e = Engine.create () in
  let tr = Gr_trace.Tracer.create ~clock:(fun () -> Engine.now e) ~enabled:true () in
  Engine.set_tracer e tr;
  for _ = 1 to 3 do
    ignore (Engine.every e ~interval:(Time_ns.ms 10) (fun _ -> ()) : Engine.handle)
  done;
  Engine.run_until e (Time_ns.ms 20);
  let seqs =
    List.filter_map
      (fun (ev : Gr_trace.Event.t) ->
        match List.assoc_opt "seq" ev.args with Some (Gr_trace.Event.Int n) -> Some n | _ -> None)
      (Gr_trace.Sink.to_list (Gr_trace.Tracer.events tr))
  in
  Alcotest.(check (list int)) "seq per dispatch" [ 0; 1; 2; 3; 4; 5 ] seqs

(* ---------- allocation ---------- *)

let test_periodic_dispatch_allocates_nothing () =
  (* Spread: 50 timers one microsecond apart, each its own run.
     Aligned: 50 timers at one instant, one run of 50 slots. *)
  List.iter
    (fun (case, start) ->
      let e = Engine.create () in
      for i = 0 to 49 do
        ignore
          (Engine.every e ~start:(start i) ~interval:(Time_ns.us 50) (fun _ -> ()) : Engine.handle)
      done;
      Engine.run_until e (Time_ns.ms 1);
      let fired0 = Engine.events_fired e in
      let w0 = Gc.minor_words () in
      Engine.run_until e (Time_ns.ms 20);
      let words = Gc.minor_words () -. w0 in
      check_bool (case ^ ": dispatched at least 10k events") true
        (Engine.events_fired e - fired0 >= 10_000);
      Alcotest.(check (float 0.)) (case ^ ": minor words across run_until") 0. words)
    [ ("spread", fun i -> Time_ns.us i); ("aligned", fun _ -> Time_ns.us 50) ]

(* ---------- differential: engine vs a sorted-list reference ---------- *)

(* What an event's callback does besides logging its firing. *)
type reaction = Quiet | Cancel_id of int | Spawn of int

type op =
  | At of int * reaction  (** [schedule_at (now + offset)] *)
  | After of int * reaction  (** [schedule_after delay] *)
  | Every of int option * int option * int * reaction
      (** start and stop relative to now, interval *)
  | Cancel of int  (** by event id, possibly stale or unknown *)
  | Run of int  (** [run_until (now + delta)] *)

(* Per [Run]: the firings so far as [(id, time)], the clock and [pending]. *)
type observation = (int * int) list * int * int

let run_engine ops : observation list =
  let e = Engine.create () in
  let handles = Hashtbl.create 16 and log = ref [] and ids = ref 0 in
  let fresh () =
    incr ids;
    !ids - 1
  in
  let rec callback id react engine =
    log := (id, Engine.now engine) :: !log;
    match react with
    | Quiet -> ()
    | Cancel_id k -> Option.iter Engine.cancel (Hashtbl.find_opt handles k)
    | Spawn d ->
      let id' = fresh () in
      Hashtbl.replace handles id' (Engine.schedule_after engine d (callback id' Quiet))
  in
  List.filter_map
    (fun op ->
      let now = Engine.now e in
      let add react schedule =
        let id = fresh () in
        Hashtbl.replace handles id (schedule (callback id react))
      in
      match op with
      | At (o, r) ->
        add r (Engine.schedule_at e (now + o));
        None
      | After (d, r) ->
        add r (Engine.schedule_after e d);
        None
      | Every (start, stop, interval, r) ->
        add r
          (Engine.every e
             ?start:(Option.map (( + ) now) start)
             ?stop:(Option.map (( + ) now) stop)
             ~interval);
        None
      | Cancel k ->
        Option.iter Engine.cancel (Hashtbl.find_opt handles k);
        None
      | Run d ->
        Engine.run_until e (now + d);
        Some (List.rev !log, Engine.now e, Engine.pending e))
    ops

(* The reference: a list kept sorted by (time, order), popped from the
   head. A periodic event leaves the list while its callback runs and
   is re-inserted with a fresh order afterwards unless the callback
   cancelled it. *)
type ref_event = { id : int; time : int; order : int; period : int; stop : int; react : reaction }

let run_reference ops : observation list =
  let clock = ref 0 and seq = ref 0 and queue = ref [] and log = ref [] and ids = ref 0 in
  let running = ref None and running_cancelled = ref false in
  let fresh () =
    incr ids;
    !ids - 1
  in
  let insert ev =
    let key e = (e.time, e.order) in
    let rec go = function
      | x :: rest when key x < key ev -> x :: go rest
      | l -> ev :: l
    in
    queue := go !queue
  in
  let enqueue ~id ~time ~period ~stop react =
    insert { id; time; order = !seq; period; stop; react };
    incr seq
  in
  let cancel k =
    if List.exists (fun e -> e.id = k) !queue then queue := List.filter (fun e -> e.id <> k) !queue
    else if !running = Some k then running_cancelled := true
  in
  let react = function
    | Quiet -> ()
    | Cancel_id k -> cancel k
    | Spawn d -> enqueue ~id:(fresh ()) ~time:(!clock + d) ~period:0 ~stop:max_int Quiet
  in
  let fire ev =
    clock := ev.time;
    log := (ev.id, ev.time) :: !log;
    if ev.period = 0 then react ev.react
    else begin
      running := Some ev.id;
      running_cancelled := false;
      react ev.react;
      running := None;
      let next = ev.time + ev.period in
      if (not !running_cancelled) && next < ev.stop then
        enqueue ~id:ev.id ~time:next ~period:ev.period ~stop:ev.stop ev.react
    end
  in
  let rec run_until limit =
    match !queue with
    | ev :: rest when ev.time <= limit ->
      queue := rest;
      fire ev;
      run_until limit
    | _ -> clock := max !clock limit
  in
  List.filter_map
    (fun op ->
      let now = !clock in
      match op with
      | At (d, r) | After (d, r) ->
        enqueue ~id:(fresh ()) ~time:(now + d) ~period:0 ~stop:max_int r;
        None
      | Every (start, stop, interval, r) ->
        let id = fresh () in
        let first = match start with Some s -> max (now + s) now | None -> now + interval in
        let stop = match stop with Some s -> now + s | None -> max_int in
        if first < stop then enqueue ~id ~time:first ~period:interval ~stop r;
        None
      | Cancel k ->
        cancel k;
        None
      | Run d ->
        run_until (now + d);
        Some (List.rev !log, !clock, List.length !queue))
    ops

let queue_matches_reference =
  let open QCheck2.Gen in
  (* Biased toward same-instant pushes (offset 0, or the shared
     offset 3) and aligned periodic timers (start 2, interval 4), so
     instant runs form, split and empty often. *)
  let offset = frequency [ (3, int_bound 6); (2, pure 0); (2, pure 3) ] in
  let reaction =
    frequency
      [
        (3, pure Quiet);
        (2, map (fun k -> Cancel_id k) (int_bound 30));
        (1, map (fun d -> Spawn d) (int_bound 4));
        (1, pure (Spawn 0));
      ]
  in
  let every =
    frequency
      [
        (2, triple (opt (int_range (-3) 10)) (opt (int_bound 30)) (int_range 1 5));
        (2, map (fun stop -> (Some 2, stop, 4)) (opt (int_range 10 30)));
      ]
  in
  let op =
    frequency
      [
        (3, map2 (fun o r -> At (o, r)) offset reaction);
        (2, map2 (fun d r -> After (d, r)) offset reaction);
        (3, map2 (fun (start, stop, interval) r -> Every (start, stop, interval, r)) every reaction);
        (2, map (fun k -> Cancel k) (int_bound 30));
        (3, map (fun d -> Run d) (int_bound 12));
      ]
  in
  let print_reaction = function
    | Quiet -> "quiet"
    | Cancel_id k -> Printf.sprintf "cancel %d" k
    | Spawn d -> Printf.sprintf "spawn +%d" d
  in
  let print_op = function
    | At (o, r) -> Printf.sprintf "at +%d (%s)" o (print_reaction r)
    | After (d, r) -> Printf.sprintf "after %d (%s)" d (print_reaction r)
    | Every (start, stop, interval, r) ->
      let o = function Some x -> string_of_int x | None -> "-" in
      Printf.sprintf "every %d start %s stop %s (%s)" interval (o start) (o stop) (print_reaction r)
    | Cancel k -> Printf.sprintf "cancel %d" k
    | Run d -> Printf.sprintf "run +%d" d
  in
  (* [list_size] shrinks only by cutting the tail, so two ops that fail
     together stayed as far apart as they were drawn. This shrinks by
     dropping any run of len/2, len/4, ..., 1 consecutive ops, then by
     simplifying one op in place (values toward 0, options to [None],
     reactions to [Quiet]), and draws exactly as [list_size]. *)
  let drop_runs ops =
    let n = List.length ops in
    let drop k i = List.filteri (fun j _ -> j < i || j >= i + k) ops in
    Seq.iterate (fun k -> k / 2) (n / 2)
    |> Seq.take_while (fun k -> k > 0)
    |> Seq.flat_map (fun k ->
           Seq.map (fun c -> drop k (c * k)) (Seq.init ((n + k - 1) / k) Fun.id))
  in
  let towards0 = QCheck2.Shrink.int_towards 0 in
  let simpler_opt = function
    | Some x -> Seq.cons None (Seq.map Option.some (towards0 x))
    | None -> Seq.empty
  in
  let simpler_reaction = function
    | Quiet -> Seq.empty
    | Cancel_id k -> Seq.cons Quiet (Seq.map (fun k -> Cancel_id k) (towards0 k))
    | Spawn d -> Seq.cons Quiet (Seq.map (fun d -> Spawn d) (towards0 d))
  in
  let simpler_op = function
    | At (o, r) ->
      Seq.append (Seq.map (fun o -> At (o, r)) (towards0 o))
        (Seq.map (fun r -> At (o, r)) (simpler_reaction r))
    | After (d, r) ->
      Seq.append (Seq.map (fun d -> After (d, r)) (towards0 d))
        (Seq.map (fun r -> After (d, r)) (simpler_reaction r))
    | Every (start, stop, interval, r) ->
      List.to_seq
        [
          Seq.map (fun start -> Every (start, stop, interval, r)) (simpler_opt start);
          Seq.map (fun stop -> Every (start, stop, interval, r)) (simpler_opt stop);
          Seq.map (fun i -> Every (start, stop, i, r)) (QCheck2.Shrink.int_towards 1 interval);
          Seq.map (fun r -> Every (start, stop, interval, r)) (simpler_reaction r);
        ]
      |> Seq.concat
    | Cancel k -> Seq.map (fun k -> Cancel k) (towards0 k)
    | Run d -> Seq.map (fun d -> Run d) (towards0 d)
  in
  let shrink ops =
    Seq.append (drop_runs ops)
      (Seq.flat_map
         (fun (i, op) ->
           Seq.map (fun op -> List.mapi (fun j x -> if j = i then op else x) ops) (simpler_op op))
         (Seq.mapi (fun i op -> (i, op)) (List.to_seq ops)))
  in
  let ops = list_size (int_range 1 60) op in
  QCheck2.Test.make ~name:"queue matches a sorted-list reference" ~count:500
    ~print:(fun ops -> String.concat "; " (List.map print_op ops))
    (make_primitive ~gen:(fun rand -> generate1 ~rand ops) ~shrink)
    (fun ops ->
      let ops = ops @ [ Run 40 ] in
      run_engine ops = run_reference ops)

let suite =
  [
    ( "sim.engine",
      [
        Alcotest.test_case "fires in time order" `Quick test_fires_in_time_order;
        Alcotest.test_case "FIFO tie-break" `Quick test_fifo_tie_break;
        Alcotest.test_case "clock advances" `Quick test_clock_advances;
        Alcotest.test_case "past scheduling rejected" `Quick test_schedule_in_past_rejected;
        Alcotest.test_case "schedule_after" `Quick test_schedule_after;
        Alcotest.test_case "cancel" `Quick test_cancel;
        Alcotest.test_case "run_until" `Quick test_run_until_stops_and_advances;
        Alcotest.test_case "every with start/stop" `Quick test_every_start_stop;
        Alcotest.test_case "cancel periodic mid-stream" `Quick test_every_cancel_mid_stream;
        Alcotest.test_case "invalid interval" `Quick test_every_invalid_interval;
        Alcotest.test_case "events_fired counter" `Quick test_events_fired_counter;
        Alcotest.test_case "nested scheduling cascade" `Quick test_nested_scheduling_cascade;
        Alcotest.test_case "periodic cancels itself" `Quick test_every_cancel_from_own_callback;
        Alcotest.test_case "stale handle spares a reused slot" `Quick
          test_stale_handle_spares_reused_slot;
        Alcotest.test_case "cancel every born past stop" `Quick test_cancel_every_born_past_stop;
        Alcotest.test_case "next_event_time and run_until after a cancel" `Quick
          test_next_event_time_after_cancel;
        Alcotest.test_case "run: cancel head, middle and tail" `Quick
          test_run_cancel_head_middle_tail;
        Alcotest.test_case "run: a second run at one instant" `Quick test_second_run_at_one_instant;
        Alcotest.test_case "run: same-instant push from a callback" `Quick
          test_same_instant_push_from_callback;
        Alcotest.test_case "run: next_event_time after cancelling a run" `Quick
          test_next_event_time_after_cancelling_a_run;
        Alcotest.test_case "run: traced seq is each slot's own" `Quick test_aligned_dispatch_seq;
        Alcotest.test_case "periodic dispatch allocates nothing" `Quick
          test_periodic_dispatch_allocates_nothing;
        QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5EED |]) queue_matches_reference;
      ] );
  ]
