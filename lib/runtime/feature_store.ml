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
   MIN/MAX keep a monotonic deque of (seq, value); DELTA reads the
   ring directly at [oldest_seq]; QUANTILE gathers the in-window
   suffix located by binary search and ranks it. *)

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
  extrema : (int * float) Deque.t option; (* Min/Max only *)
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
   [capacity_per_key], so a key costs memory in proportion to the
   samples it holds. [latest] keeps the saved value's own box, so a
   LOAD returns it without boxing a copy of the newest sample. An entry
   with no sample (made by a demand registration, a handle or a watch)
   reads exactly like a missing key. *)
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
  mutable shards : t array; (* fleet tier: node stores merged under plain keys *)
  (* Fleet interception: when set, saves that would cross
     into a foreign global tier are handed to this hook instead of
     mutating the tier directly (docs/PARALLEL.md). *)
  mutable global_publish : (string -> float -> unit) option;
}

let create ~clock ?(capacity_per_key = 4096) () =
  if capacity_per_key <= 0 then invalid_arg "Feature_store.create: capacity must be positive";
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
    shards = [||];
    global_publish = None;
  }

let set_tracer t tracer = t.tracer <- Some tracer

(* Routing never changes after [link], and [link] only accepts stores
   that hold no entries yet, so anything resolved later (handles
   included) stays valid for the store's lifetime. *)
let link tier shards =
  let fresh s =
    Option.is_none s.global_tier && Array.length s.shards = 0 && Hashtbl.length s.entries = 0
  in
  if not (fresh tier && Array.for_all fresh shards) then
    invalid_arg "Feature_store.link: stores must be unlinked and empty";
  tier.shards <- Array.copy shards;
  Array.iter (fun s -> s.global_tier <- Some tier) shards

(* Where a key's entry lives: global-scoped keys go to the fleet tier
   (self when standalone), everything else stays here. *)
let resolve t key =
  match t.global_tier with Some g when Gr_dsl.Ast.is_global_key key -> g | _ -> t

(* A fleet-tier store answers plain keys as the merged view over its
   own entries plus every node shard; its own table is member 0 so
   fleet-level saves of plain keys stay visible. *)
let sharded t key = Array.length t.shards > 0 && not (Gr_dsl.Ast.is_global_key key)

let members t = t :: Array.to_list t.shards

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
  match d.extrema with
  | None -> ()
  | Some dq ->
    if not (Float.is_nan v) then begin
      (* NaN never enters the monotonic deque (it compares false with
         everything and would wedge there); MIN/MAX answer NaN from
         the [nans] counter while one is in the window instead. *)
      (match d.fn with
      | Min -> Deque.drop_back_while (fun (_, back) -> back >= v) dq
      | Max -> Deque.drop_back_while (fun (_, back) -> back <= v) dq
      | _ -> ());
      Deque.push_back dq (seq, v)
    end

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
  (match d.extrema with Some dq -> Deque.clear dq | None -> ());
  let base = e.pushes - e.len in
  for seq = d.oldest_seq to e.pushes - 1 do
    admit e d seq (seq - base)
  done

let maybe_rebuild e d = if d.needs_rebuild then rebuild e d

(* Advance [oldest_seq] past samples whose timestamp left the window;
   returns how many were retired (the check's amortized scan cost). *)
let expire t e d ~now =
  let cutoff = now - int_of_float d.window_ns in
  let base = e.pushes - e.len in
  let expired = ref 0 in
  while d.oldest_seq < e.pushes && time_at e (d.oldest_seq - base) <= cutoff do
    retire t e d (d.oldest_seq - base);
    d.oldest_seq <- d.oldest_seq + 1;
    incr expired
  done;
  (match d.extrema with
  | Some dq -> Deque.drop_front_while (fun (seq, _) -> seq < d.oldest_seq) dq
  | None -> ());
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
      (match d.extrema with
      | Some dq -> Deque.drop_front_while (fun (seq, _) -> seq <= evict_seq) dq
      | None -> ());
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

(* Append one sample to [e], the entry of [key] in [t]. *)
let save_entry t key e value =
  if e.len = Array.length e.times then begin
    if e.len < t.capacity_per_key then grow t e
    else evict_oldest t e (e.pushes - e.len) e.demands
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

(* Merged latest for plain keys on a fleet-tier store: the value of
   the newest sample across all members. Ties on the timestamp go to
   the later member, matching the merged window ordering (stable by
   member position). *)
let merged_load t key =
  let best_at = ref min_int and best = ref 0. in
  List.iter
    (fun m ->
      let e = find m key in
      if e.len > 0 && time_at e (e.len - 1) >= !best_at then begin
        best_at := time_at e (e.len - 1);
        best := e.latest
      end)
    (members t);
  !best

let load t key =
  let t = resolve t key in
  t.loads <- t.loads + 1;
  if sharded t key then merged_load t key
  else (find t key).latest

let mem t key =
  let t = resolve t key in
  List.exists (fun m -> (find m key).len > 0) (if sharded t key then members t else [ t ])

(* ---------- demand registration ---------- *)

let find_demand e ~fn ~window_ns ~param =
  List.find_opt
    (fun d -> d.fn = fn && d.window_ns = window_ns && d.param = param)
    e.demands

let rec register_demand t ~key ~fn ~window_ns ~param =
  let t = resolve t key in
  (* Fleet tier: the merged read is incremental only if every member
     keeps streaming state for the shape, so the registration fans out
     to each node shard (and is kept on the own table for
     bookkeeping/enumeration). *)
  if sharded t key then
    Array.iter (fun s -> register_demand s ~key ~fn ~window_ns ~param) t.shards;
  register_demand_here t ~key ~fn ~window_ns ~param

and register_demand_here t ~key ~fn ~window_ns ~param =
  let e = entry t key in
  match find_demand e ~fn ~window_ns ~param with
  | Some d -> d.refs <- d.refs + 1
  | None ->
    let d =
      {
        fn;
        window_ns;
        param;
        refs = 1;
        oldest_seq = e.pushes - e.len;
        count = 0;
        sums = { sum = 0.; sumsq = 0. };
        nans = 0;
        extremes = 0;
        needs_rebuild = false;
        extrema =
          (match fn with Min | Max -> Some (Deque.create ()) | _ -> None);
      }
    in
    (* Replay retained samples so a demand registered mid-run agrees
       with the scan from its first read; anything already outside the
       window is trimmed by the next expiry. *)
    for i = 0 to e.len - 1 do
      admit e d (d.oldest_seq + i) i
    done;
    e.demands <- d :: e.demands;
    t.n_demands <- t.n_demands + 1

let rec release_demand t ~key ~fn ~window_ns ~param =
  let t = resolve t key in
  if sharded t key then
    Array.iter (fun s -> release_demand s ~key ~fn ~window_ns ~param) t.shards;
  release_demand_here t ~key ~fn ~window_ns ~param

and release_demand_here t ~key ~fn ~window_ns ~param =
  let e = find t key in
  match find_demand e ~fn ~window_ns ~param with
  | None -> ()
  | Some d ->
    d.refs <- d.refs - 1;
    if d.refs <= 0 then begin
      e.demands <- List.filter (fun d' -> d' != d) e.demands;
      t.n_demands <- t.n_demands - 1
    end

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

(* In-window (timestamp, value) pairs for one member, oldest first. *)
let member_window e ~now ~window_ns =
  let i0 = first_inside e ~now ~window_ns in
  Array.init (e.len - i0) (fun i -> sample_at e (i0 + i))

(* The merged window of a fleet-tier plain key: every member's
   in-window samples, sorted by timestamp. Each member's slice is
   already time-ordered and the sort is stable, so equal timestamps
   keep member order (own table first, then shards in index order) —
   the tie-break DELTA's merged oldest/newest must agree with. The
   window cutoff uses the fleet store's clock for every member; in a
   fleet all stores share the sim clock anyway. *)
let merged_window t ~key ~window_ns =
  let now = t.clock () in
  let parts = List.map (fun m -> member_window (find m key) ~now ~window_ns) (members t) in
  let all = Array.concat parts in
  Array.stable_sort (fun (a, _) (b, _) -> compare (a : Time_ns.t) b) all;
  all

(* Newest-first in-window values: the naive scan, kept verbatim as the
   oracle the incremental path is property-tested against. On a
   fleet-tier store this is the concat-and-scan over all shards. *)
let window_values t ~key ~window_ns =
  let t = resolve t key in
  if sharded t key then
    Array.fold_left (fun acc (_, v) -> v :: acc) [] (merged_window t ~key ~window_ns)
  else begin
    let e = find t key in
    let cutoff = t.clock () - int_of_float window_ns in
    let acc = ref [] in
    for i = 0 to e.len - 1 do
      if time_at e i > cutoff then acc := value_at e i :: !acc
    done;
    !acc
  end

let window_samples t ~key ~window_ns =
  let t = resolve t key in
  if sharded t key then Array.map snd (merged_window t ~key ~window_ns)
  else
    let e = find t key in
    values_from e (first_inside e ~now:(t.clock ()) ~window_ns)

let samples_in_window t ~key ~window_ns =
  let t = resolve t key in
  let now = t.clock () in
  List.fold_left
    (fun acc m ->
      let e = find m key in
      acc + e.len - first_inside e ~now ~window_ns)
    0
    (if sharded t key then members t else [ t ])

let agg_name : Gr_dsl.Ast.agg -> string = function
  | Count -> "COUNT"
  | Sum -> "SUM"
  | Rate -> "RATE"
  | Avg -> "AVG"
  | Min -> "MIN"
  | Max -> "MAX"
  | Stddev -> "STDDEV"
  | Quantile -> "QUANTILE"
  | Delta -> "DELTA"

type agg_result = { value : float; scanned : int; incremental : bool }

(* The naive scan, kept as the oracle the streaming path is
   property-tested against: it answers reads without a demand and every
   read under force_naive. *)
let naive_aggregate t ~key ~fn ~window_ns ~param =
  let values = window_values t ~key ~window_ns in
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
      (* window_values folds newest-first, so the head is the newest
         sample and the last element the oldest in the window. *)
      match values with
      | [] -> 0.
      | newest :: _ ->
        let rec last = function [ x ] -> x | _ :: rest -> last rest | [] -> newest in
        newest -. last values)
  in
  { value; scanned = List.length values; incremental = false }

(* ---------- cross-shard merge ---------- *)

(* Mergeable summary of one shard's streaming state for a single
   (key, fn, window, param) shape: the running count/sum/sumsq behind
   COUNT/SUM/RATE/AVG/STDDEV, the deque-of-extrema front behind
   MIN/MAX, the window head/tail behind DELTA and the in-window value
   multiset behind QUANTILE. [union] is associative with [empty] as
   unit, so a fleet-wide aggregate over N node shards folds N exports
   — each O(1) amortized on the streaming path — instead of
   re-scanning every shard's window. [value] (with [running]) is the
   one place the streaming answer formulas live: single-store and
   merged reads both answer through it. *)
module Merge = struct
  type state = {
    count : int;
    sum : float;
    sumsq : float;
    nans : int; (* NaN samples in the window; MIN/MAX answer NaN while > 0 *)
    minv : float option; (* min over non-NaN in-window samples *)
    maxv : float option;
    oldest : (Time_ns.t * float) option;
    newest : (Time_ns.t * float) option;
    samples : float array; (* in-window values (QUANTILE only) *)
  }

  let empty =
    {
      count = 0;
      sum = 0.;
      sumsq = 0.;
      nans = 0;
      minv = None;
      maxv = None;
      oldest = None;
      newest = None;
      samples = [||];
    }

  let opt2 f a b = match (a, b) with None, x | x, None -> x | Some x, Some y -> Some (f x y)

  (* [union a b] with [a] from the earlier shard position: timestamp
     ties on the window head go to [a], on the tail to [b] — the same
     tie-break as the stable merged-window sort the naive oracle
     scans. *)
  let union a b =
    {
      count = a.count + b.count;
      sum = a.sum +. b.sum;
      sumsq = a.sumsq +. b.sumsq;
      nans = a.nans + b.nans;
      minv = opt2 Float.min a.minv b.minv;
      maxv = opt2 Float.max a.maxv b.maxv;
      oldest =
        (match (a.oldest, b.oldest) with
        | None, x | x, None -> x
        | Some (ta, _), Some (tb, _) -> if tb < ta then b.oldest else a.oldest);
      newest =
        (match (a.newest, b.newest) with
        | None, x | x, None -> x
        | Some (ta, _), Some (tb, _) -> if tb >= ta then b.newest else a.newest);
      samples = Array.append a.samples b.samples;
    }

  (* COUNT/SUM/RATE/AVG/STDDEV from the running sums. Inlined, so a
     single store's read passes a demand's sums here unboxed instead
     of boxing them into a [state]. *)
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
    | Min | Max | Delta | Quantile -> invalid_arg "Merge.running"

  let value ~fn ~window_ns ~param s =
    match (fn : Gr_dsl.Ast.agg) with
    | Count | Sum | Rate | Avg | Stddev ->
      running ~fn ~window_ns ~count:s.count ~sum:s.sum ~sumsq:s.sumsq
    | Min -> (
      (* Float.min/Float.max propagate NaN, so the naive scan answers
         NaN whenever one is in the window; the deque (which NaN never
         enters) defers to the counter to agree. *)
      if s.nans > 0 then Float.nan
      else match s.minv with Some v -> v | None -> 0.)
    | Max -> (
      if s.nans > 0 then Float.nan
      else match s.maxv with Some v -> v | None -> 0.)
    | Delta -> (
      match (s.newest, s.oldest) with
      | Some (_, nv), Some (_, ov) -> nv -. ov
      | _ -> 0.)
    | Quantile -> if Array.length s.samples = 0 then 0. else Stats.quantile s.samples param
end

(* A registered demand's state after lazy expiry, plus the samples
   this read touched: the ones expired now and, for QUANTILE, the
   in-window suffix. QUANTILE has no exact O(1) summary; instead of
   folding the whole ring it binary-searches the cutoff and exports
   only that suffix. *)
let export_demand t e d ~now =
  let expired = expire t e d ~now in
  let base = e.pushes - e.len in
  match d.fn with
  | Count | Sum | Rate | Avg | Stddev ->
    ( { Merge.empty with count = d.count; sum = d.sums.sum; sumsq = d.sums.sumsq; nans = d.nans },
      expired )
  | Min | Max ->
    let front =
      match d.extrema with Some dq -> Option.map snd (Deque.front dq) | None -> None
    in
    ( {
        Merge.empty with
        count = d.count;
        nans = d.nans;
        minv = (if d.fn = Min then front else None);
        maxv = (if d.fn = Max then front else None);
      },
      expired )
  | Delta ->
    if d.oldest_seq >= e.pushes then (Merge.empty, expired)
    else
      ( {
          Merge.empty with
          count = d.count;
          oldest = Some (sample_at e (d.oldest_seq - base));
          newest = Some (sample_at e (e.len - 1));
        },
        expired )
  | Quantile ->
    let i0 = first_inside e ~now ~window_ns:d.window_ns in
    let n = e.len - i0 in
    ({ Merge.empty with count = n; samples = values_from e i0 }, expired + n)

(* The streaming read of one store: [Merge.value] of its demand's
   export, or for the running-sum family the same formulas applied to
   the demand's sums directly. *)
let demand_result t e d =
  let now = t.clock () in
  match d.fn with
  | Count | Sum | Rate | Avg | Stddev ->
    let scanned = expire t e d ~now in
    let s = d.sums in
    {
      value =
        Merge.running ~fn:d.fn ~window_ns:d.window_ns ~count:d.count ~sum:s.sum ~sumsq:s.sumsq;
      scanned;
      incremental = true;
    }
  | Min | Max | Delta | Quantile ->
    let state, scanned = export_demand t e d ~now in
    {
      value = Merge.value ~fn:d.fn ~window_ns:d.window_ns ~param:d.param state;
      scanned;
      incremental = true;
    }

(* One member's export for a shape, plus read-cost accounting:
   (state, samples scanned, served incrementally). The streaming path
   exports the demand's running state after lazy expiry; without a
   demand (or under force_naive) the state is rebuilt by scanning the
   in-window suffix. [now] is the reading store's clock: in a fleet the
   shards' clocks sit at the epoch boundary, ahead of the control plane
   mid-epoch, and cutting with a shard's own clock would expire samples
   the naive concat-and-scan oracle (which always cuts with the reading
   store's clock) still sees. A member with no sample and no demand
   exports the empty state, counted as incremental. *)
let export_here t ~now ~key ~fn ~window_ns ~param =
  let e = find t key in
  let streaming = if t.force_naive then None else find_demand e ~fn ~window_ns ~param in
  match streaming with
  | Some d ->
    let state, scanned = export_demand t e d ~now in
    (state, scanned, true)
  | None when e.len = 0 -> (Merge.empty, 0, true)
  | None ->
    let win = member_window e ~now ~window_ns in
    let n = Array.length win in
    let st = ref Merge.empty in
    Array.iteri
      (fun i (at, v) ->
        let s = !st in
        st :=
          {
            Merge.count = s.count + 1;
            sum = s.sum +. v;
            sumsq = s.sumsq +. (v *. v);
            nans = (s.nans + if Float.is_nan v then 1 else 0);
            minv = (if Float.is_nan v then s.minv else Merge.opt2 Float.min s.minv (Some v));
            maxv = (if Float.is_nan v then s.maxv else Merge.opt2 Float.max s.maxv (Some v));
            oldest = (if i = 0 then Some (at, v) else s.oldest);
            newest = Some (at, v);
            samples = s.samples;
          })
      win;
    ({ !st with samples = Array.map snd win }, n, false)

(* Fold every member of a fleet-tier store into one merged state:
   (state, samples scanned, whether every member served it
   incrementally). *)
let fold_members t ~now ~key ~fn ~window_ns ~param =
  let scanned = ref 0 in
  let incremental = ref true in
  let state =
    List.fold_left
      (fun acc m ->
        let s, n, inc = export_here m ~now ~key ~fn ~window_ns ~param in
        scanned := !scanned + n;
        if not inc then incremental := false;
        Merge.union acc s)
      Merge.empty (members t)
  in
  (state, !scanned, !incremental)

let export_state ?now t ~key ~fn ~window_ns ~param =
  let t = resolve t key in
  let now = match now with Some n -> n | None -> t.clock () in
  let state, _, _ =
    if sharded t key then fold_members t ~now ~key ~fn ~window_ns ~param
    else export_here t ~now ~key ~fn ~window_ns ~param
  in
  state

(* Fleet-tier aggregate over a plain key: fold every member's export
   into one merged state. Under force_naive the whole merged window is
   re-scanned instead — the concat-and-scan oracle the incremental
   merge is verified against. *)
let merged_aggregate t ~key ~fn ~window_ns ~param =
  if t.force_naive then naive_aggregate t ~key ~fn ~window_ns ~param
  else begin
    let state, scanned, incremental =
      fold_members t ~now:(t.clock ()) ~key ~fn ~window_ns ~param
    in
    { value = Merge.value ~fn ~window_ns ~param state; scanned; incremental }
  end

(* Count and trace one aggregate read; [t] must already be the
   resolved store for [key]. *)
let record_agg t ~key ~fn ~window_ns (r : agg_result) =
  if r.incremental then t.agg_hits <- t.agg_hits + 1 else t.agg_misses <- t.agg_misses + 1;
  if tracing t then
    Gr_trace.Tracer.instant (Option.get t.tracer) ~cat:"store"
      ~args:
        [
          ("key", Gr_trace.Event.Str key);
          ("window_ns", Gr_trace.Event.Float window_ns);
          ("samples", Gr_trace.Event.Int r.scanned);
          ("incremental", Gr_trace.Event.Bool r.incremental);
        ]
      ("agg:" ^ agg_name fn);
  r

let aggregate_result t ~key ~fn ~window_ns ~param =
  let t = resolve t key in
  let r =
    if sharded t key then merged_aggregate t ~key ~fn ~window_ns ~param
    else begin
      let e = find t key in
      match if t.force_naive then None else find_demand e ~fn ~window_ns ~param with
      | Some d -> demand_result t e d
      | None -> naive_aggregate t ~key ~fn ~window_ns ~param
    end
  in
  record_agg t ~key ~fn ~window_ns r

let aggregate t ~key ~fn ~window_ns ~param =
  (aggregate_result t ~key ~fn ~window_ns ~param).value

(* ---------- pre-resolved handles (JIT fast path) ----------

   A handle pins the resolve step and the key's entry at creation, and
   lazily the streaming demand lookup, so the per-check read is a
   couple of loads instead of hashing the key and walking the demand
   list. Routing is fixed by [link] before any entry exists, so the
   resolved store never goes stale, and entries are never removed. An
   entry made for a handle holds no sample until the first save, and
   reads like a missing key until then. A key that reads as a
   cross-shard merge has no single entry to read: its handle records
   [merged] and every read takes the exact slow path. The fast
   aggregate path still checks [force_naive] and a cached demand's
   [refs]: a released demand (refs = 0) is no longer maintained, so
   the handle re-finds or falls back. Demands are only removed when
   refs reaches 0, so an object with refs > 0 is guaranteed live. *)

type load_handle = {
  lh_store : t; (* resolve t key, at creation *)
  lh_key : string;
  lh_merged : bool;
  lh_entry : entry;
}

let load_handle t key =
  let s = resolve t key in
  Some { lh_store = s; lh_key = key; lh_merged = sharded s key; lh_entry = entry s key }

let handle_load h =
  let s = h.lh_store in
  if h.lh_merged then load s h.lh_key
  else begin
    s.loads <- s.loads + 1;
    h.lh_entry.latest
  end

type agg_handle = {
  ah_store : t;
  ah_key : string;
  ah_fn : Gr_dsl.Ast.agg;
  ah_window_ns : float;
  ah_param : float;
  ah_merged : bool;
  ah_entry : entry;
  mutable ah_demand : demand option;
}

let agg_handle t ~key ~fn ~window_ns ~param =
  let s = resolve t key in
  let e = entry s key in
  {
    ah_store = s;
    ah_key = key;
    ah_fn = fn;
    ah_window_ns = window_ns;
    ah_param = param;
    ah_merged = sharded s key;
    ah_entry = e;
    ah_demand = find_demand e ~fn ~window_ns ~param;
  }

let handle_aggregate h =
  let s = h.ah_store in
  if h.ah_merged || s.force_naive then
    aggregate_result s ~key:h.ah_key ~fn:h.ah_fn ~window_ns:h.ah_window_ns ~param:h.ah_param
  else begin
    (match h.ah_demand with
    | Some d when d.refs > 0 -> ()
    | _ ->
      h.ah_demand <-
        find_demand h.ah_entry ~fn:h.ah_fn ~window_ns:h.ah_window_ns ~param:h.ah_param);
    match h.ah_demand with
    | Some d when d.refs > 0 ->
      record_agg s ~key:h.ah_key ~fn:h.ah_fn ~window_ns:h.ah_window_ns
        (demand_result s h.ah_entry d)
    | _ -> aggregate_result s ~key:h.ah_key ~fn:h.ah_fn ~window_ns:h.ah_window_ns ~param:h.ah_param
  end

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

let unwatch w =
  let e = w.w_entry in
  e.watchers <- List.filter (fun w' -> w' != w) e.watchers

let on_save t fn = Vec.push t.subscribers fn
let save_count t = t.saves
let load_count t = t.loads
let agg_hit_count t = t.agg_hits
let agg_miss_count t = t.agg_misses
let expired_count t = t.expired
