open Gr_util

type policy = { policy_name : string; promote : float array -> bool }

let promote_on_second_touch =
  {
    policy_name = "second-touch";
    promote = (fun features -> features.(0) >= 2.);
  }

type page_state = {
  mutable in_fast : bool;
  mutable access_count : int;
  mutable last_access : Time_ns.t;
}

type t = {
  engine : Gr_sim.Engine.t;
  hooks : Hooks.t;
  slot : policy Policy_slot.t;
  fast_capacity : int;
  pages : (int, page_state) Hashtbl.t;
  mutable fast_lru : int list; (* most recent first; only fast pages *)
  mutable accesses : int;
  mutable fast_hits : int;
  mutable promotions : int;
  mutable quota : int;
}

let fast_latency = Time_ns.ns 120
let slow_latency = Time_ns.us 2
let promote_cost = Time_ns.us 4

let create ~engine ~hooks ~fast_capacity () =
  if fast_capacity <= 0 then invalid_arg "Mm.create: fast_capacity must be positive";
  {
    engine;
    hooks;
    slot = Policy_slot.create ~name:"mm:placement" ~fallback:("second-touch", promote_on_second_touch);
    fast_capacity;
    pages = Hashtbl.create 1024;
    fast_lru = [];
    accesses = 0;
    fast_hits = 0;
    promotions = 0;
    quota = fast_capacity;
  }

let slot t = t.slot

let page_state t page =
  match Hashtbl.find_opt t.pages page with
  | Some st -> st
  | None ->
    let st = { in_fast = false; access_count = 0; last_access = Time_ns.zero } in
    Hashtbl.add t.pages page st;
    st

let touch_lru t page =
  t.fast_lru <- page :: List.filter (fun p -> p <> page) t.fast_lru

let evict_lru t =
  match List.rev t.fast_lru with
  | [] -> ()
  | victim :: _ ->
    t.fast_lru <- List.filter (fun p -> p <> victim) t.fast_lru;
    (page_state t victim).in_fast <- false

let fast_occupancy t = List.length t.fast_lru
let fast_capacity t = t.fast_capacity

let promote t page st =
  while fast_occupancy t >= min t.quota t.fast_capacity do
    evict_lru t
  done;
  st.in_fast <- true;
  touch_lru t page;
  t.promotions <- t.promotions + 1;
  Hooks.fire t.hooks "mm:promote" [ ("page", float_of_int page) ]

let access t ~page =
  let now = Gr_sim.Engine.now t.engine in
  let st = page_state t page in
  t.accesses <- t.accesses + 1;
  let gap_ms =
    if st.access_count = 0 then 1e9 else Time_ns.to_float_ms (Time_ns.diff now st.last_access)
  in
  st.access_count <- st.access_count + 1;
  st.last_access <- now;
  let latency =
    if st.in_fast then begin
      t.fast_hits <- t.fast_hits + 1;
      touch_lru t page;
      fast_latency
    end
    else begin
      let features =
        [|
          float_of_int st.access_count;
          gap_ms;
          float_of_int (fast_occupancy t) /. float_of_int t.fast_capacity;
        |]
      in
      let policy = Policy_slot.current t.slot in
      let lat =
        if policy.promote features then begin
          promote t page st;
          Time_ns.add slow_latency promote_cost
        end
        else slow_latency
      in
      Hooks.fire t.hooks "mm:page_fault" [ ("latency_us", Time_ns.to_float_us lat) ];
      lat
    end
  in
  Hooks.fire t.hooks "mm:access"
    [ ("page", float_of_int page); ("fast", if st.in_fast then 1. else 0.) ];
  latency

let advise_quota t ~requested =
  Hooks.fire t.hooks "mm:quota"
    [ ("requested", float_of_int requested); ("capacity", float_of_int t.fast_capacity) ];
  if requested < 0 || requested > t.fast_capacity then `Rejected
  else begin
    t.quota <- requested;
    while fast_occupancy t > t.quota do
      evict_lru t
    done;
    `Applied requested
  end

let accesses t = t.accesses
let fast_hits t = t.fast_hits
let hit_fraction t = if t.accesses = 0 then 0. else float_of_int t.fast_hits /. float_of_int t.accesses
let promotions t = t.promotions
