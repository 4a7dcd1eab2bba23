(* The fixed-array Gr_trace.Sink that growable sinks replaced, kept as
   the reference they are property-tested against (test_trace.ml): the
   whole capacity up front, each event boxed in [Some]. *)

module Event = Gr_trace.Event

type overflow = Gr_trace.Sink.overflow = Drop_newest | Overwrite_oldest

type t = {
  buf : Event.t option array;
  overflow : overflow;
  mutable head : int;
  mutable len : int;
  mutable emitted : int;
  mutable dropped : int;
}

let create ~capacity ~overflow =
  { buf = Array.make capacity None; overflow; head = 0; len = 0; emitted = 0; dropped = 0 }

let capacity t = Array.length t.buf
let length t = t.len
let emitted t = t.emitted
let dropped t = t.dropped
let is_full t = t.len = capacity t

let emit t ev =
  t.emitted <- t.emitted + 1;
  let cap = capacity t in
  if t.len < cap then begin
    t.buf.((t.head + t.len) mod cap) <- Some ev;
    t.len <- t.len + 1
  end
  else begin
    match t.overflow with
    | Drop_newest -> t.dropped <- t.dropped + 1
    | Overwrite_oldest ->
      t.buf.(t.head) <- Some ev;
      t.head <- (t.head + 1) mod cap;
      t.dropped <- t.dropped + 1
  end

let to_list t =
  let cap = capacity t in
  List.init t.len (fun i ->
      match t.buf.((t.head + i) mod cap) with Some ev -> ev | None -> assert false)

let clear t =
  Array.fill t.buf 0 (capacity t) None;
  t.head <- 0;
  t.len <- 0
