open Gr_util

(* A demand is one (fn, window, param) aggregate registered against a
   key, kept incrementally so checks don't re-scan the ring.

   Samples are numbered by [seq], the entry's total push count; the
   demand tracks [oldest_seq], the first sample still inside its
   window. Samples leave a demand exactly once, either

   - lazily against the clock on read ([expire]), walking the ring
     from [oldest_seq] while timestamps fall at or before the cutoff,
     or
   - eagerly on capacity eviction ([save]), when the ring is about to
     overwrite its oldest slot — the only moment the evicted value is
     still readable.

   Running count/sum/sum-of-squares serve COUNT/SUM/RATE/AVG/STDDEV;
   MIN/MAX keep a monotonic queue of sample numbers and read their
   values from the ring; DELTA reads the ring directly at
   [oldest_seq]; QUANTILE gathers the in-window suffix located by
   binary search and ranks it. *)

(* The running sums sit in a float-only record, which OCaml stores
   unboxed: updating them on every save allocates nothing, where a
   float field of [demand] would box each new value. *)
type sums = { mutable sum : float; mutable sumsq : float }

type demand = {
  fn : Gr_dsl.Ast.agg;
  window_ns : float;
  param : float;
  mutable refs : int;
  mutable oldest_seq : int;
  mutable count : int;
  sums : sums;
  mutable nans : int; (* NaN samples currently in window *)
  mutable extremes : int; (* non-finite or huge samples in window *)
  mutable needs_rebuild : bool;
  (* MIN/MAX: the sequence numbers of the window's candidate extremes,
     oldest first, their values strictly rising (MIN) or falling (MAX).
     A ring of [ext_len] numbers from [ext_head]. Each one is at or
     after [oldest_seq], so its sample is still in the entry's ring:
     eviction retires a sample before overwriting it. *)
  mutable ext : int array;
  mutable ext_head : int;
  mutable ext_len : int;
}

(* A sample this large poisons the running sums: once admitted, NaN and
   infinity never subtract back out, and a finite-but-huge value leaves
   catastrophic cancellation behind when it retires. Such samples are
   counted while in the window (results agree with the naive scan,
   which sees the same values), and the running state is rebuilt from
   the ring the moment the last one leaves. Legitimate signals stay
   orders of magnitude below the threshold, so rebuilds only happen
   when something (e.g. a fault injector) corrupts a key. *)
let[@inline] is_extreme v = (not (Float.is_finite v)) || Float.abs v > 1e11

(* A key's samples: one ring over two parallel arrays, timestamps in
   [times] and values unboxed in [values], oldest at slot [head]. The
   arrays start empty and double on demand up to the store's
   [capacity_per_key], but only while a live demand still counts the
   oldest sample or the key has no demand, so a key costs memory in
   proportion to the samples its demands read ([save_entry]). [latest]
   keeps the saved value's own box, so a LOAD returns it without
   boxing a copy of the newest sample. An entry with no sample (made by
   a demand registration, a handle or a watch) reads exactly like a
   missing key. *)
type entry = {
  mutable times : Time_ns.t array;
  mutable values : Float.Array.t;
  mutable head : int;
  mutable len : int;
  mutable latest : float;
  mutable pushes : int; (* total saves ever; the next sample's seq *)
  mutable demands : demand list; (* few per key; linear lookup *)
  mutable watchers : watch list; (* registration order *)
}

and watch = { w_entry : entry; callback : float -> unit }

type t = {
  clock : unit -> Time_ns.t;
  capacity_per_key : int;
  entries : (string, entry) Hashtbl.t;
  subscribers : (string -> float -> unit) Vec.t;
  mutable saves : int;
  mutable loads : int;
  mutable agg_hits : int;
  mutable agg_misses : int;
  mutable expired : int;
  mutable n_demands : int;
  mutable force_naive : bool;
  mutable tracer : Gr_trace.Tracer.t option;
  (* Routing, fixed once by [link] before any entry exists. *)
  mutable global_tier : t option; (* None: this store is its own tier *)
  alone : t array; (* [| t |] *)
  mutable fleet : t array; (* a plain key's members: [alone], or the tier then its shards *)
  (* Fleet interception: when set, saves that would cross
     into a foreign global tier are handed to this hook instead of
     mutating the tier directly (docs/PARALLEL.md). *)
  mutable global_publish : (string -> float -> unit) option;
}

let create ~clock ?(capacity_per_key = 4096) () =
  if capacity_per_key <= 0 then invalid_arg "Feature_store.create: capacity must be positive";
  let rec t =
    {
      clock;
      capacity_per_key;
      entries = Hashtbl.create 64;
      subscribers = Vec.create ();
      saves = 0;
      loads = 0;
      agg_hits = 0;
      agg_misses = 0;
      expired = 0;
      n_demands = 0;
      force_naive = false;
      tracer = None;
      global_tier = None;
      alone = [| t |];
      fleet = [| t |];
      global_publish = None;
    }
  in
  t

let set_tracer t tracer = t.tracer <- Some tracer

(* Routing never changes after [link], and [link] only accepts stores
   that hold no entries yet, so anything resolved later (handles
   included) stays valid for the store's lifetime. *)
let link tier shards =
  let fresh s =
    Option.is_none s.global_tier && Array.length s.fleet = 1 && Hashtbl.length s.entries = 0
  in
  if not (fresh tier && Array.for_all fresh shards) then
    invalid_arg "Feature_store.link: stores must be unlinked and empty";
  tier.fleet <- Array.append tier.alone shards;
  Array.iter (fun s -> s.global_tier <- Some tier) shards

(* Where a key's entry lives: global-scoped keys go to the fleet tier
   (self when standalone), everything else stays here. *)
let resolve t key =
  match t.global_tier with Some g when Gr_dsl.Ast.is_global_key key -> g | _ -> t

(* The stores a read of [key] folds, the resolved store first: that
   store alone, or for a plain key on a fleet tier the tier's own table
   (so fleet-level saves of plain keys stay visible) and then every
   node shard in index order. The one place a read is told local from
   merged; routing is fixed by [link], so handles resolve it once. *)
let members t key =
  let s = resolve t key in
  if Gr_dsl.Ast.is_global_key key then s.alone else s.fleet

let tracing t = match t.tracer with Some tr -> Gr_trace.Tracer.enabled tr | None -> false

let empty_entry () =
  {
    times = [||];
    values = Float.Array.create 0;
    head = 0;
    len = 0;
    latest = 0.;
    pushes = 0;
    demands = [];
    watchers = [];
  }

(* What every read of a key without an entry sees, so a missing key
   and an entry with no sample read alike by construction. Nothing
   writes it: saves, demands and watches go through [entry]. *)
let absent = empty_entry ()

(* [Hashtbl.find] rather than [find_opt]: a hit allocates nothing. *)
let entry t key =
  match Hashtbl.find t.entries key with
  | e -> e
  | exception Not_found ->
    let e = empty_entry () in
    Hashtbl.add t.entries key e;
    e

let find t key = match Hashtbl.find t.entries key with e -> e | exception Not_found -> absent

(* ---------- the sample ring ---------- *)

(* Index accessors over the [i]-th oldest sample, [0 <= i < len].
   Inlined so a value read stays an unboxed float. *)
let[@inline] slot e i =
  let j = e.head + i in
  let size = Array.length e.times in
  if j >= size then j - size else j

let[@inline] time_at e i = Array.unsafe_get e.times (slot e i)
let[@inline] value_at e i = Float.Array.unsafe_get e.values (slot e i)
let sample_at e i = (time_at e i, value_at e i)

(* Double the arrays, clamped to the capacity, moving the samples
   oldest-first to slot 0. *)
let grow t e =
  let size = min t.capacity_per_key (max 8 (2 * Array.length e.times)) in
  let times = Array.make size 0 and values = Float.Array.make size 0. in
  for i = 0 to e.len - 1 do
    let j = slot e i in
    times.(i) <- e.times.(j);
    Float.Array.set values i (Float.Array.get e.values j)
  done;
  e.times <- times;
  e.values <- values;
  e.head <- 0

(* Append the newest sample. A full ring overwrites its oldest slot,
   which the caller has already evicted from every demand. *)
let push e at v =
  let size = Array.length e.times in
  let j =
    if e.len < size then begin
      let j = slot e e.len in
      e.len <- e.len + 1;
      j
    end
    else begin
      let j = e.head in
      e.head <- (if j + 1 = size then 0 else j + 1);
      j
    end
  in
  e.times.(j) <- at;
  Float.Array.set e.values j v

(* Values of samples [i0 .. len - 1], oldest first. *)
let values_from e i0 =
  let a = Array.make (e.len - i0) 0. in
  for i = 0 to Array.length a - 1 do
    a.(i) <- value_at e (i0 + i)
  done;
  a

(* First index inside the window, found by binary search over the
   time-ordered samples — O(log n) instead of a full fold. *)
let first_inside e ~now ~window_ns =
  let cutoff = now - int_of_float window_ns in
  let lo = ref 0 and hi = ref e.len in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if time_at e mid > cutoff then hi := mid else lo := mid + 1
  done;
  !lo

(* ---------- MIN/MAX window extremes ---------- *)

(* The [k]-th oldest sequence number in a demand's extremes queue. *)
let[@inline] ext_at d k =
  let j = d.ext_head + k in
  let size = Array.length d.ext in
  Array.unsafe_get d.ext (if j >= size then j - size else j)

(* Drop the extremes numbered before [seq]: they left the window. *)
let[@inline] ext_drop_before d seq =
  while d.ext_len > 0 && ext_at d 0 < seq do
    d.ext_head <- (if d.ext_head + 1 = Array.length d.ext then 0 else d.ext_head + 1);
    d.ext_len <- d.ext_len - 1
  done

(* Queue sample [seq], at ring index [i] of [e], after dropping the
   newer-end extremes it dominates. The queue grows by doubling and
   never holds more than the window's samples, so a save allocates
   only while the window is still filling. *)
let ext_push e d seq i =
  let v = value_at e i in
  let base = seq - i in
  let dominated = ref true in
  while !dominated && d.ext_len > 0 do
    let back = value_at e (ext_at d (d.ext_len - 1) - base) in
    if match d.fn with Min -> back >= v | _ -> back <= v then d.ext_len <- d.ext_len - 1
    else dominated := false
  done;
  if d.ext_len = Array.length d.ext then begin
    let ext = Array.make (max 8 (2 * d.ext_len)) 0 in
    for k = 0 to d.ext_len - 1 do
      ext.(k) <- ext_at d k
    done;
    d.ext <- ext;
    d.ext_head <- 0
  end;
  let j = d.ext_head + d.ext_len in
  let size = Array.length d.ext in
  d.ext.(if j >= size then j - size else j) <- seq;
  d.ext_len <- d.ext_len + 1

(* ---------- streaming demand maintenance ----------

   [admit] and [retire] take the sample's ring index, not its value:
   the value is read here, unboxed, where passing it as an argument
   would box it. *)

let retire t e d i =
  let v = value_at e i in
  let s = d.sums in
  d.count <- d.count - 1;
  if Float.is_nan v then d.nans <- d.nans - 1;
  if is_extreme v then begin
    d.extremes <- d.extremes - 1;
    if d.extremes = 0 then d.needs_rebuild <- true
  end;
  if d.count = 0 then begin
    (* Resetting on empty kills floating-point drift: each non-empty
       stretch of the window accumulates its own error, none carries
       over. *)
    s.sum <- 0.;
    s.sumsq <- 0.;
    d.needs_rebuild <- false
  end
  else begin
    s.sum <- s.sum -. v;
    s.sumsq <- s.sumsq -. (v *. v);
    (* Catastrophic cancellation: if the retired sample dominated the
       running sums, the subtraction left mostly the rounding error
       accumulated while it was in the window (an adversarial 1e9
       among 100-scale samples corrupts AVG/STDDEV long after it
       leaves). The ratio test is NaN-safe — comparisons are false
       when a NaN is still in the window, and the nans/extremes
       counters handle that case. *)
    if
      (not d.needs_rebuild)
      && (Float.abs v > Float.abs s.sum || v *. v > s.sumsq)
    then d.needs_rebuild <- true
  end;
  t.expired <- t.expired + 1

let admit e d seq i =
  let v = value_at e i in
  let s = d.sums in
  d.count <- d.count + 1;
  s.sum <- s.sum +. v;
  s.sumsq <- s.sumsq +. (v *. v);
  if Float.is_nan v then d.nans <- d.nans + 1;
  if is_extreme v then d.extremes <- d.extremes + 1;
  (* NaN never enters the extremes queue (it compares false with
     everything and would wedge there); MIN/MAX answer NaN from the
     [nans] counter while one is in the window instead. *)
  match d.fn with Min | Max when not (Float.is_nan v) -> ext_push e d seq i | _ -> ()

let rec admit_all e seq i = function
  | [] -> ()
  | d :: ds ->
    admit e d seq i;
    admit_all e seq i ds

(* Recompute the running state from the retained in-window samples —
   the recovery path after the last poisoning sample leaves the
   window. O(window), but only ever runs at that transition. *)
let rebuild e d =
  d.needs_rebuild <- false;
  d.count <- 0;
  d.sums.sum <- 0.;
  d.sums.sumsq <- 0.;
  d.nans <- 0;
  d.extremes <- 0;
  d.ext_len <- 0;
  let base = e.pushes - e.len in
  for seq = d.oldest_seq to e.pushes - 1 do
    admit e d seq (seq - base)
  done

let maybe_rebuild e d = if d.needs_rebuild then rebuild e d

(* Whether [d]'s oldest sample has left the window ending at
   [cutoff]. *)
let[@inline] stale e d ~cutoff =
  d.oldest_seq < e.pushes && time_at e (d.oldest_seq - (e.pushes - e.len)) <= cutoff

(* Advance [oldest_seq] past samples whose timestamp left the window;
   returns how many were retired (the check's amortized scan cost). *)
let expire t e d ~now =
  let cutoff = now - int_of_float d.window_ns in
  let expired = ref 0 in
  while stale e d ~cutoff do
    retire t e d (d.oldest_seq - (e.pushes - e.len));
    d.oldest_seq <- d.oldest_seq + 1;
    incr expired
  done;
  ext_drop_before d d.oldest_seq;
  maybe_rebuild e d;
  !expired

(* The ring is about to overwrite its oldest sample (index 0, seq
   [evict_seq]): any demand still counting it must give it up now,
   while the value is readable. *)
let rec evict_oldest t e evict_seq = function
  | [] -> ()
  | d :: ds ->
    if d.oldest_seq <= evict_seq then begin
      retire t e d 0;
      d.oldest_seq <- evict_seq + 1;
      ext_drop_before d d.oldest_seq;
      maybe_rebuild e d
    end;
    evict_oldest t e evict_seq ds

let rec call_watchers value = function
  | [] -> ()
  | w :: ws ->
    w.callback value;
    call_watchers value ws

(* The key's own watchers first, then the store-wide subscribers. *)
let notify t key e value =
  call_watchers value e.watchers;
  let subs = t.subscribers in
  for i = 0 to Vec.length subs - 1 do
    (* Bound first: where [Vec.get] is not inlined (dev builds),
       [(Vec.get subs i) key value] compiles to a four-argument
       application of it, which allocates partial applications. *)
    let fn = Vec.get subs i in
    fn key value
  done

(* Whether every demand in the list has already expired sample [seq].
   A named recursion, not a [List.for_all] closure: a save allocates
   nothing. *)
let rec all_expired seq = function
  | [] -> true
  | d :: ds -> d.oldest_seq > seq && all_expired seq ds

(* Append one sample to [e], the entry of [key] in [t]. A full ring
   whose oldest sample no live demand still counts overwrites it rather
   than grow: retention follows the demands' windows, and since no
   demand retires that sample, every running state is untouched. A key
   with no demand grows to [capacity_per_key]. *)
let save_entry t key e value =
  if e.len = Array.length e.times then begin
    let oldest = e.pushes - e.len in
    match e.demands with
    | _ :: _ as ds when all_expired oldest ds -> () (* [push] overwrites it *)
    | ds -> if e.len < t.capacity_per_key then grow t e else evict_oldest t e oldest ds
  end;
  push e (t.clock ()) value;
  e.latest <- value;
  let seq = e.pushes in
  e.pushes <- seq + 1;
  admit_all e seq (e.len - 1) e.demands;
  t.saves <- t.saves + 1;
  (* Counter events let Chrome/Perfetto plot each key as a time
     series; emitted before the watchers so the SAVE sample precedes
     any ON_CHANGE check it wakes. The counter's span is the causal
     parent of every watcher and subscriber it wakes, so ON_CHANGE
     cascades trace back to the write that triggered them. *)
  if tracing t then begin
    let tr = Option.get t.tracer in
    let span = Gr_trace.Tracer.fresh_span tr in
    Gr_trace.Tracer.counter tr ~cat:"store" ("store:" ^ key) ~span [ ("value", value) ];
    Gr_trace.Tracer.with_parent tr (Some span) (fun () -> notify t key e value)
  end
  else notify t key e value

let set_global_publish t fn = t.global_publish <- fn

let save t key value =
  (* A global-scoped save resolves to the fleet tier. From a fleet
     node that write would cross domain boundaries mid-epoch, so node
     stores install a [global_publish] hook that buffers the save as
     an intent; the control deployment replays it at the epoch
     barrier in deterministic order. Saves
     that stay local (including a fleet tier's own global saves, where
     [resolve] is the store itself) are never intercepted. *)
  let s = resolve t key in
  match t.global_publish with
  | Some publish when s != t -> publish key value
  | _ -> save_entry s key (entry s key) value

let mem t key = Array.exists (fun m -> (find m key).len > 0) (members t key)

(* ---------- demand registration ---------- *)

(* What a member without the shape reads as: never live ([refs = 0]),
   never written. *)
let no_demand =
  {
    fn = Count;
    window_ns = 0.;
    param = 0.;
    refs = 0;
    oldest_seq = 0;
    count = 0;
    sums = { sum = 0.; sumsq = 0. };
    nans = 0;
    extremes = 0;
    needs_rebuild = false;
    ext = [||];
    ext_head = 0;
    ext_len = 0;
  }

let rec find_demand ds ~fn ~window_ns ~param =
  match ds with
  | [] -> no_demand
  | d :: ds ->
    if d.fn = fn && d.window_ns = window_ns && d.param = param then d
    else find_demand ds ~fn ~window_ns ~param

(* A merged read streams only if its members keep streaming state for
   the shape, so a registration reaches every member. *)
let register_demand t ~key ~fn ~window_ns ~param =
  Array.iter
    (fun m ->
      let e = entry m key in
      let d = find_demand e.demands ~fn ~window_ns ~param in
      if d.refs > 0 then d.refs <- d.refs + 1
      else begin
        let d =
          {
            no_demand with
            fn;
            window_ns;
            param;
            refs = 1;
            oldest_seq = e.pushes - e.len;
            sums = { sum = 0.; sumsq = 0. };
          }
        in
        (* Replay retained samples so a demand registered mid-run agrees
           with the scan from its first read; anything already outside
           the window is trimmed by the next expiry. *)
        for i = 0 to e.len - 1 do
          admit e d (d.oldest_seq + i) i
        done;
        e.demands <- d :: e.demands;
        m.n_demands <- m.n_demands + 1
      end)
    (members t key)

let release_demand t ~key ~fn ~window_ns ~param =
  Array.iter
    (fun m ->
      let e = find m key in
      let d = find_demand e.demands ~fn ~window_ns ~param in
      if d.refs > 0 then begin
        d.refs <- d.refs - 1;
        if d.refs = 0 then begin
          e.demands <- List.filter (fun d' -> d' != d) e.demands;
          m.n_demands <- m.n_demands - 1
        end
      end)
    (members t key)

let demand_count t = t.n_demands
let set_force_naive t flag = t.force_naive <- flag

let demand_shapes t =
  Hashtbl.fold
    (fun key e acc ->
      List.fold_left
        (fun acc d -> (key, d.fn, d.window_ns, d.param) :: acc)
        acc e.demands)
    t.entries []
  |> List.sort compare

(* ---------- windowed reads ---------- *)

(* The in-window (timestamp, value) samples of the member entries [es],
   sorted by timestamp. Each entry's slice is already time-ordered and
   the sort is stable, so equal timestamps keep member order — the
   tie-break the streaming DELTA agrees with. Every member is cut with
   the reading store's clock; in a fleet all stores share the sim
   clock anyway. *)
let window es ~now ~window_ns =
  let slice e =
    let i0 = first_inside e ~now ~window_ns in
    Array.init (e.len - i0) (fun i -> sample_at e (i0 + i))
  in
  let all = Array.concat (Array.to_list (Array.map slice es)) in
  Array.stable_sort (fun (a, _) (b, _) -> compare (a : Time_ns.t) b) all;
  all

let window_samples t ~key ~window_ns =
  let ms = members t key in
  Array.map snd (window (Array.map (fun m -> find m key) ms) ~now:(ms.(0).clock ()) ~window_ns)

let samples_in_window t ~key ~window_ns =
  let ms = members t key in
  let now = ms.(0).clock () in
  Array.fold_left
    (fun acc m ->
      let e = find m key in
      acc + e.len - first_inside e ~now ~window_ns)
    0 ms

type agg_result = { value : float; scanned : int; per_read : int; incremental : bool }

(* The naive scan of the members' merged window, kept as the oracle the
   streaming path is property-tested against: it answers every read
   that cannot stream, and every read under force_naive. *)
let naive_aggregate es ~now ~fn ~window_ns ~param =
  (* Newest first. *)
  let values = Array.fold_left (fun acc (_, v) -> v :: acc) [] (window es ~now ~window_ns) in
  let value =
    match (fn : Gr_dsl.Ast.agg) with
    | Count -> float_of_int (List.length values)
    | Sum -> List.fold_left ( +. ) 0. values
    | Rate ->
      let sum = List.fold_left ( +. ) 0. values in
      sum /. (window_ns /. 1e9)
    | Avg -> (
      match values with
      | [] -> 0.
      | _ -> List.fold_left ( +. ) 0. values /. float_of_int (List.length values))
    | Min -> ( match values with [] -> 0. | v :: rest -> List.fold_left Float.min v rest)
    | Max -> ( match values with [] -> 0. | v :: rest -> List.fold_left Float.max v rest)
    | Stddev -> Stats.stddev (Array.of_list values)
    | Quantile -> (
      match values with [] -> 0. | _ -> Stats.quantile (Array.of_list values) param)
    | Delta -> (
      (* The head is the newest sample and the last element the oldest
         in the window. *)
      match values with
      | [] -> 0.
      | newest :: _ ->
        let rec last = function [ x ] -> x | _ :: rest -> last rest | [] -> newest in
        newest -. last values)
  in
  let scanned = List.length values in
  { value; scanned; per_read = scanned; incremental = false }

(* COUNT/SUM/RATE/AVG/STDDEV from running sums. Inlined, so the sums
   reach it unboxed. *)
let[@inline] running ~fn ~window_ns ~count ~sum ~sumsq =
  match (fn : Gr_dsl.Ast.agg) with
  | Count -> float_of_int count
  | Sum -> sum
  | Rate -> sum /. (window_ns /. 1e9)
  | Avg -> if count = 0 then 0. else sum /. float_of_int count
  | Stddev ->
    if count < 2 then 0.
    else begin
      let n = float_of_int count in
      let mean = sum /. n in
      sqrt (Float.max 0. ((sumsq /. n) -. (mean *. mean)))
    end
  | Min | Max | Delta | Quantile -> invalid_arg "Feature_store.running"

(* ---------- resolved reads ----------

   Every read of a key, by key or through a handle, goes through one
   view of its members: their stores, their entries and, for an
   aggregate, each one's live demand for the shape. A handle builds
   the view once, making missing entries, so the per-check read is a
   few loads instead of hashing the key per member and walking demand
   lists; a by-key read builds it with [find] and reads the same way.
   Routing is fixed by [link] before any entry exists and entries are
   never removed, so a view never goes stale except for its demands: a
   released demand (refs = 0) is no longer maintained, so the read
   refinds it. Demands are only removed when refs reaches 0, so a
   cached demand with refs > 0 is live. *)

(* Member 0's entry, then the others': for a local key [lh_rest] is the
   shared empty array, so a read touches nothing but the handle and the
   entry. *)
type load_handle = { lh_store : t; lh_entry : entry; lh_rest : entry array }

let load_view lookup t key =
  let ms = members t key in
  let es = Array.map (fun m -> lookup m key) ms in
  { lh_store = ms.(0); lh_entry = es.(0); lh_rest = Array.sub es 1 (Array.length es - 1) }

let load_handle t key = Some (load_view entry t key)

(* The newest sample's value across the members, a timestamp tie going
   to the later member; 0 when none holds a sample (member 0's
   [latest] is then still 0). *)
let newest h =
  let e0 = h.lh_entry in
  let best = ref e0 and best_at = ref (if e0.len > 0 then time_at e0 (e0.len - 1) else min_int) in
  for i = 0 to Array.length h.lh_rest - 1 do
    let e = Array.unsafe_get h.lh_rest i in
    if e.len > 0 && time_at e (e.len - 1) >= !best_at then begin
      best := e;
      best_at := time_at e (e.len - 1)
    end
  done;
  !best.latest

(* A lone member's newest sample is its [latest]: read it directly,
   LOAD being the hottest read there is. *)
let[@inline] peek h = if Array.length h.lh_rest = 0 then h.lh_entry.latest else newest h
let handle_store h = h.lh_store
let count_loads t n = t.loads <- t.loads + n

let handle_load h =
  let s = h.lh_store in
  s.loads <- s.loads + 1;
  peek h

let load t key = handle_load (load_view find t key)

type agg_handle = {
  ah_store : t;
  ah_key : string;
  ah_fn : Gr_dsl.Ast.agg;
  ah_window_ns : float;
  ah_param : float;
  ah_members : t array;
  ah_entries : entry array;
  ah_demands : demand array; (* each member's demand as last found; [no_demand] when none *)
}

let agg_view lookup t ~key ~fn ~window_ns ~param =
  let ms = members t key in
  let es = Array.map (fun m -> lookup m key) ms in
  {
    ah_store = ms.(0);
    ah_key = key;
    ah_fn = fn;
    ah_window_ns = window_ns;
    ah_param = param;
    ah_members = ms;
    ah_entries = es;
    ah_demands = Array.map (fun e -> find_demand e.demands ~fn ~window_ns ~param) es;
  }

let agg_handle = agg_view entry

(* Member [m]'s demand for the view's shape: the cached one while it is
   live, else refound and cached again ([no_demand] when the member has
   none). *)
let refind h m =
  let d =
    find_demand (Array.unsafe_get h.ah_entries m).demands ~fn:h.ah_fn ~window_ns:h.ah_window_ns
      ~param:h.ah_param
  in
  Array.unsafe_set h.ah_demands m d;
  d

let[@inline] demand h m =
  let d = Array.unsafe_get h.ah_demands m in
  if d.refs > 0 then d else refind h m

(* Whether a read can skip its expiry pass: every member's cached
   demand is live and has nothing to retire. Makes no call, so the
   common read keeps its state in registers. *)
let rec settled h ~now m =
  m < 0
  ||
  let d = Array.unsafe_get h.ah_demands m in
  d.refs > 0
  && (not (stale (Array.unsafe_get h.ah_entries m) d ~cutoff:(now - int_of_float d.window_ns)))
  && settled h ~now (m - 1)

(* The first pass of a streaming read: expire every member's live
   demand against the reading store's clock, refinding released ones on
   the way. Answers how many samples that retires, the read's scan
   cost, or -1 when the read cannot stream: a read streams when some member has a
   live demand and every member holding samples has one. In a fleet the
   shards' clocks sit at the epoch boundary, ahead of the control plane
   mid-epoch; cutting with a shard's own clock would expire samples the
   naive scan still sees. *)
let expire_members h ~now =
  let es = h.ah_entries in
  let live = ref false and complete = ref true and scanned = ref 0 in
  for m = 0 to Array.length es - 1 do
    let e = Array.unsafe_get es m and d = demand h m in
    if d.refs > 0 then begin
      live := true;
      scanned := !scanned + expire (Array.unsafe_get h.ah_members m) e d ~now
    end
    else if e.len > 0 then complete := false
  done;
  if !live && !complete then !scanned else -1

(* The second pass: one fold per family over the live demands, in
   member order. Sums and extremes are seeded from the first live
   member, so a one-member read answers straight from its demand, and
   accumulate in local float variables, which the compiler keeps
   unboxed: a read allocates nothing but its result. *)

let fold_sums h =
  let ds = h.ah_demands in
  let live = ref false and count = ref 0 and sum = ref 0. and sumsq = ref 0. in
  for m = 0 to Array.length ds - 1 do
    let d = Array.unsafe_get ds m in
    if d.refs > 0 then begin
      if !live then begin
        sum := !sum +. d.sums.sum;
        sumsq := !sumsq +. d.sums.sumsq
      end
      else begin
        sum := d.sums.sum;
        sumsq := d.sums.sumsq;
        live := true
      end;
      count := !count + d.count
    end
  done;
  running ~fn:h.ah_fn ~window_ns:h.ah_window_ns ~count:!count ~sum:!sum ~sumsq:!sumsq

(* MIN/MAX: the extreme of the members' queue fronts; NaN while any
   member's window holds one, 0 when every window is empty. *)
let fold_extremes h =
  let es = h.ah_entries and ds = h.ah_demands and min = h.ah_fn = Min in
  let seen = ref false and nans = ref 0 and ext = ref 0. in
  for m = 0 to Array.length ds - 1 do
    let d = Array.unsafe_get ds m in
    if d.refs > 0 then begin
      nans := !nans + d.nans;
      if d.ext_len > 0 then begin
        let e = Array.unsafe_get es m in
        let v = value_at e (ext_at d 0 - (e.pushes - e.len)) in
        ext := if not !seen then v else if min then Float.min !ext v else Float.max !ext v;
        seen := true
      end
    end
  done;
  if !nans > 0 then Float.nan else if !seen then !ext else 0.

(* DELTA: newest minus oldest in-window sample across the members. On
   a timestamp tie the window head goes to the earlier member and the
   tail to the later one, as in the stable merged-window sort. *)
let fold_delta h =
  let es = h.ah_entries and ds = h.ah_demands in
  let head = ref (-1) and head_i = ref 0 and tail = ref (-1) in
  for m = 0 to Array.length ds - 1 do
    let d = Array.unsafe_get ds m and e = Array.unsafe_get es m in
    if d.refs > 0 && d.oldest_seq < e.pushes then begin
      let i = d.oldest_seq - (e.pushes - e.len) in
      if !head < 0 || time_at e i < time_at es.(!head) !head_i then begin
        head := m;
        head_i := i
      end;
      if !tail < 0 || time_at e (e.len - 1) >= time_at es.(!tail) (es.(!tail).len - 1) then
        tail := m
    end
  done;
  if !head < 0 then 0.
  else
    let tail = es.(!tail) in
    value_at tail (tail.len - 1) -. value_at es.(!head) !head_i

(* QUANTILE ranks the members' in-window suffixes, found by binary
   search, in member order. *)
let window_suffixes h ~now =
  let es = h.ah_entries and ds = h.ah_demands in
  let parts = ref [] in
  for m = Array.length ds - 1 downto 0 do
    let d = Array.unsafe_get ds m in
    if d.refs > 0 then begin
      let e = Array.unsafe_get es m in
      parts := values_from e (first_inside e ~now ~window_ns:d.window_ns) :: !parts
    end
  done;
  Array.concat !parts

(* The physical read behind every aggregate read: expires and folds,
   but counts and traces nothing. *)
let scan h =
  let now = h.ah_store.clock () in
  let scanned =
    if h.ah_store.force_naive then -1
    else if settled h ~now (Array.length h.ah_demands - 1) then 0
    else expire_members h ~now
  in
  if scanned < 0 then
    naive_aggregate h.ah_entries ~now ~fn:h.ah_fn ~window_ns:h.ah_window_ns ~param:h.ah_param
  else
    match h.ah_fn with
    | Count | Sum | Rate | Avg | Stddev ->
      { value = fold_sums h; scanned; per_read = 0; incremental = true }
    | Min | Max -> { value = fold_extremes h; scanned; per_read = 0; incremental = true }
    | Delta -> { value = fold_delta h; scanned; per_read = 0; incremental = true }
    | Quantile ->
      (* The ranked suffixes count as scanned too, on every read. *)
      let samples = window_suffixes h ~now in
      {
        value = (if Array.length samples = 0 then 0. else Stats.quantile samples h.ah_param);
        scanned = scanned + Array.length samples;
        per_read = Array.length samples;
        incremental = true;
      }

(* Count and trace one logical aggregate read on its resolved store. *)
let count_aggregate h ~scanned ~incremental =
  let t = h.ah_store in
  if incremental then t.agg_hits <- t.agg_hits + 1 else t.agg_misses <- t.agg_misses + 1;
  if tracing t then
    Gr_trace.Tracer.instant (Option.get t.tracer) ~cat:"store"
      ~args:
        [
          ("key", Gr_trace.Event.Str h.ah_key);
          ("window_ns", Gr_trace.Event.Float h.ah_window_ns);
          ("samples", Gr_trace.Event.Int scanned);
          ("incremental", Gr_trace.Event.Bool incremental);
        ]
      ("agg:" ^ Gr_dsl.Ast.agg_name h.ah_fn)

let handle_aggregate h =
  let r = scan h in
  count_aggregate h ~scanned:r.scanned ~incremental:r.incremental;
  r

let aggregate_result t ~key ~fn ~window_ns ~param =
  handle_aggregate (agg_view find t ~key ~fn ~window_ns ~param)

let aggregate t ~key ~fn ~window_ns ~param =
  (aggregate_result t ~key ~fn ~window_ns ~param).value

(* A save handle pins [resolve] and the entry, so a save skips both
   the key hash and the table probe. A save that crosses into a
   foreign global tier still consults the issuing store's
   [global_publish] hook on every call, exactly as [save] does. *)
type save_handle = {
  sh_from : t;
  sh_store : t; (* resolve sh_from key, at creation *)
  sh_key : string;
  sh_entry : entry;
}

let save_handle t key =
  let s = resolve t key in
  { sh_from = t; sh_store = s; sh_key = key; sh_entry = entry s key }

let handle_save h value =
  let s = h.sh_store in
  match h.sh_from.global_publish with
  | Some publish when s != h.sh_from -> publish h.sh_key value
  | _ -> save_entry s h.sh_key h.sh_entry value

(* A watch resolves its key like a save handle and hangs on the entry
   every save of that key goes through, so a save calls exactly the
   watchers of its own key and no one filters by key. *)
let watch t key callback =
  let s = resolve t key in
  let e = entry s key in
  let w = { w_entry = e; callback } in
  e.watchers <- e.watchers @ [ w ];
  w

let last_watch w =
  let rec last = function [ w' ] -> w' == w | _ :: ws -> last ws | [] -> false in
  last w.w_entry.watchers

let unwatch w =
  let e = w.w_entry in
  e.watchers <- List.filter (fun w' -> w' != w) e.watchers

let on_save t fn = Vec.push t.subscribers fn
let save_count t = t.saves
let load_count t = t.loads
let agg_hit_count t = t.agg_hits
let agg_miss_count t = t.agg_misses
let expired_count t = t.expired
