type policy = { policy_name : string; window : float array -> int }

let sequential_doubling () =
  {
    policy_name = "sequential-doubling";
    window =
      (fun features ->
        let delta = features.(0) and run = features.(1) in
        if delta <> 1. then 0
        else min 32 (4 * int_of_float (Float.min 8. (Float.max 1. run))));
  }

type page_state = { mutable prefetched : bool }

type t = {
  hooks : Hooks.t;
  cache_pages : int;
  max_readahead : int; (* hard sanity cap: 4x the page budget *)
  slot : policy Policy_slot.t;
  cached : (int, page_state) Hashtbl.t;
  mutable lru : int list; (* LRU first *)
  mutable last_offset : int;
  mutable run_length : int;
  mutable reads : int;
  mutable hits : int;
  mutable prefetched : int;
  mutable prefetch_wasted : int;
}

let file_pages = 65536

let create ~hooks ~cache_pages () =
  if cache_pages <= 0 then invalid_arg "Fs.create: cache_pages must be positive";
  {
    hooks;
    cache_pages;
    max_readahead = 4 * cache_pages;
    slot = Policy_slot.create ~name:"fs:readahead" ~fallback:("sequential-doubling", sequential_doubling ());
    cached = Hashtbl.create (2 * cache_pages);
    lru = [];
    last_offset = -100;
    run_length = 0;
    reads = 0;
    hits = 0;
    prefetched = 0;
    prefetch_wasted = 0;
  }

let slot t = t.slot
let cache_occupancy t = Hashtbl.length t.cached

let touch t offset = t.lru <- List.filter (fun o -> o <> offset) t.lru @ [ offset ]

let evict_one t =
  match t.lru with
  | [] -> ()
  | victim :: rest ->
    t.lru <- rest;
    (match Hashtbl.find_opt t.cached victim with
    | Some st when st.prefetched -> t.prefetch_wasted <- t.prefetch_wasted + 1
    | _ -> ());
    Hashtbl.remove t.cached victim

let insert t offset ~prefetched =
  if not (Hashtbl.mem t.cached offset) then begin
    while cache_occupancy t >= t.cache_pages do
      evict_one t
    done;
    Hashtbl.add t.cached offset { prefetched };
    t.lru <- t.lru @ [ offset ];
    if prefetched then t.prefetched <- t.prefetched + 1
  end

let read t ~offset =
  let offset = ((offset mod file_pages) + file_pages) mod file_pages in
  t.reads <- t.reads + 1;
  let delta = offset - t.last_offset in
  t.run_length <- (if delta = 1 then t.run_length + 1 else 0);
  t.last_offset <- offset;
  let hit =
    match Hashtbl.find_opt t.cached offset with
    | Some st ->
      st.prefetched <- false (* the prefetch paid off *);
      touch t offset;
      true
    | None -> false
  in
  if not hit then begin
    insert t offset ~prefetched:false;
    let features =
      [|
        float_of_int delta;
        float_of_int t.run_length;
        float_of_int (cache_occupancy t) /. float_of_int t.cache_pages;
      |]
    in
    let requested = (Policy_slot.current t.slot).window features in
    Hooks.fire t.hooks "fs:readahead"
      [ ("requested", float_of_int requested); ("limit", float_of_int t.cache_pages) ];
    (* The sanity cap prevents unbounded work, but requests above the
       memory limit still go through (evicting useful pages) — that
       is precisely the misbehaviour a P3 guardrail exists to stop. *)
    let granted = max 0 (min requested t.max_readahead) in
    for i = 1 to granted do
      insert t ((offset + i) mod file_pages) ~prefetched:true
    done
  end
  else Hooks.fire t.hooks "fs:read" [ ("offset", float_of_int offset); ("hit", 1.) ];
  if not hit then Hooks.fire t.hooks "fs:read" [ ("offset", float_of_int offset); ("hit", 0.) ];
  if hit then t.hits <- t.hits + 1;
  hit

let reads t = t.reads
let hits t = t.hits
let hit_rate t = if t.reads = 0 then 0. else float_of_int t.hits /. float_of_int t.reads
let prefetched t = t.prefetched
let prefetch_wasted t = t.prefetch_wasted

let reset_stats t =
  t.reads <- 0;
  t.hits <- 0;
  t.prefetched <- 0;
  t.prefetch_wasted <- 0
