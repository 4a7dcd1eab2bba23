type overflow = Drop_newest | Overwrite_oldest

(* The ring starts small and doubles on demand up to [capacity], so an
   idle or untraced sink costs a few words instead of its whole
   capacity. Slots hold events directly; empty ones share [empty], so
   [emit] boxes nothing and [clear] still releases what it drops. *)
type t = {
  mutable buf : Event.t array;
  capacity : int;
  overflow : overflow;
  mutable head : int; (* index of oldest buffered event *)
  mutable len : int;
  mutable emitted : int;
  mutable dropped : int;
}

let empty = Event.make ~ts:0 ~cat:"" ~ph:Event.Instant ""
let initial_slots = 16

let create ?(capacity = 65536) ?(overflow = Drop_newest) () =
  if capacity <= 0 then invalid_arg "Sink.create: capacity must be positive";
  {
    buf = Array.make (min capacity initial_slots) empty;
    capacity;
    overflow;
    head = 0;
    len = 0;
    emitted = 0;
    dropped = 0;
  }

let capacity t = t.capacity
let overflow t = t.overflow
let length t = t.len
let emitted t = t.emitted
let dropped t = t.dropped
let is_full t = t.len = t.capacity

(* Double the ring, clamped to the capacity. Only a ring at capacity
   ever overwrites, so below it the oldest event is still at slot 0. *)
let grow t =
  let buf = Array.make (min t.capacity (2 * Array.length t.buf)) empty in
  Array.blit t.buf 0 buf 0 t.len;
  t.buf <- buf

let emit t ev =
  t.emitted <- t.emitted + 1;
  if t.len < t.capacity then begin
    if t.len = Array.length t.buf then grow t;
    t.buf.((t.head + t.len) mod Array.length t.buf) <- ev;
    t.len <- t.len + 1
  end
  else begin
    match t.overflow with
    | Drop_newest -> t.dropped <- t.dropped + 1
    | Overwrite_oldest ->
      t.buf.(t.head) <- ev;
      t.head <- (t.head + 1) mod t.capacity;
      t.dropped <- t.dropped + 1
  end

let iter f t =
  let size = Array.length t.buf in
  for i = 0 to t.len - 1 do
    f t.buf.((t.head + i) mod size)
  done

let to_list t =
  let acc = ref [] in
  iter (fun ev -> acc := ev :: !acc) t;
  List.rev !acc

let clear t =
  Array.fill t.buf 0 (Array.length t.buf) empty;
  t.head <- 0;
  t.len <- 0
