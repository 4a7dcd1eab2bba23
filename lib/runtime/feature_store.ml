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
type demand = {
  fn : Gr_dsl.Ast.agg;
  window_ns : float;
  param : float;
  mutable refs : int;
  mutable oldest_seq : int;
  mutable count : int;
  mutable sum : float;
  mutable sumsq : float;
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
let is_extreme v = (not (Float.is_finite v)) || Float.abs v > 1e11

type entry = {
  samples : (Time_ns.t * float) Ring.t;
  mutable latest : float;
  mutable pushes : int; (* total saves ever; the next sample's seq *)
  mutable demands : demand list; (* few per key; linear lookup *)
}

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
let clear_tracer t = t.tracer <- None

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

let entry t key =
  match Hashtbl.find_opt t.entries key with
  | Some e -> e
  | None ->
    let e =
      { samples = Ring.create ~capacity:t.capacity_per_key; latest = 0.; pushes = 0; demands = [] }
    in
    Hashtbl.add t.entries key e;
    e

(* ---------- streaming demand maintenance ---------- *)

let retire t d v =
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
    d.sum <- 0.;
    d.sumsq <- 0.;
    d.needs_rebuild <- false
  end
  else begin
    d.sum <- d.sum -. v;
    d.sumsq <- d.sumsq -. (v *. v);
    (* Catastrophic cancellation: if the retired sample dominated the
       running sums, the subtraction left mostly the rounding error
       accumulated while it was in the window (an adversarial 1e9
       among 100-scale samples corrupts AVG/STDDEV long after it
       leaves). The ratio test is NaN-safe — comparisons are false
       when a NaN is still in the window, and the nans/extremes
       counters handle that case. *)
    if
      (not d.needs_rebuild)
      && (Float.abs v > Float.abs d.sum || v *. v > d.sumsq)
    then d.needs_rebuild <- true
  end;
  t.expired <- t.expired + 1

let admit d seq v =
  d.count <- d.count + 1;
  d.sum <- d.sum +. v;
  d.sumsq <- d.sumsq +. (v *. v);
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

(* Recompute the running state from the retained in-window samples —
   the recovery path after the last poisoning sample leaves the
   window. O(window), but only ever runs at that transition. *)
let rebuild e d =
  d.needs_rebuild <- false;
  d.count <- 0;
  d.sum <- 0.;
  d.sumsq <- 0.;
  d.nans <- 0;
  d.extremes <- 0;
  (match d.extrema with Some dq -> Deque.clear dq | None -> ());
  let base = e.pushes - Ring.length e.samples in
  for seq = d.oldest_seq to e.pushes - 1 do
    let _, v = Ring.get e.samples (seq - base) in
    admit d seq v
  done

let maybe_rebuild e d = if d.needs_rebuild then rebuild e d

(* Advance [oldest_seq] past samples whose timestamp left the window;
   returns how many were retired (the check's amortized scan cost). *)
let expire t e d ~now =
  let cutoff = now - int_of_float d.window_ns in
  let base = e.pushes - Ring.length e.samples in
  let expired = ref 0 in
  let continue = ref true in
  while !continue && d.oldest_seq < e.pushes do
    let at, v = Ring.get e.samples (d.oldest_seq - base) in
    if at <= cutoff then begin
      retire t d v;
      d.oldest_seq <- d.oldest_seq + 1;
      incr expired
    end
    else continue := false
  done;
  (match d.extrema with
  | Some dq -> Deque.drop_front_while (fun (seq, _) -> seq < d.oldest_seq) dq
  | None -> ());
  maybe_rebuild e d;
  !expired

(* The ring is about to overwrite its oldest slot: any demand still
   counting that sample must give it up now, while the value is
   readable. *)
let evict_oldest t e =
  match Ring.oldest e.samples with
  | None -> ()
  | Some (_, v) ->
    let evict_seq = e.pushes - Ring.length e.samples in
    List.iter
      (fun d ->
        if d.oldest_seq <= evict_seq then begin
          retire t d v;
          d.oldest_seq <- evict_seq + 1;
          (match d.extrema with
          | Some dq -> Deque.drop_front_while (fun (seq, _) -> seq <= evict_seq) dq
          | None -> ());
          maybe_rebuild e d
        end)
      e.demands

let save_here t key value =
  let e = entry t key in
  e.latest <- value;
  if Ring.length e.samples = Ring.capacity e.samples then evict_oldest t e;
  Ring.push e.samples (t.clock (), value);
  let seq = e.pushes in
  e.pushes <- e.pushes + 1;
  List.iter (fun d -> admit d seq value) e.demands;
  t.saves <- t.saves + 1;
  (* Counter events let Chrome/Perfetto plot each key as a time
     series; emitted before subscribers so the SAVE sample precedes
     any ON_CHANGE check it wakes. The counter's span is the causal
     parent of every subscriber it wakes, so ON_CHANGE cascades trace
     back to the write that triggered them. *)
  if tracing t then begin
    let tr = Option.get t.tracer in
    let span = Gr_trace.Tracer.fresh_span tr in
    Gr_trace.Tracer.counter tr ~cat:"store" ("store:" ^ key) ~span [ ("value", value) ];
    let prev = Gr_trace.Tracer.current_span tr in
    Gr_trace.Tracer.set_current tr (Some span);
    Fun.protect
      ~finally:(fun () -> Gr_trace.Tracer.set_current tr prev)
      (fun () -> Vec.iter (fun fn -> fn key value) t.subscribers)
  end
  else Vec.iter (fun fn -> fn key value) t.subscribers

let set_global_publish t fn = t.global_publish <- fn

let save t key value =
  (* A global-scoped save resolves to the fleet tier. From a fleet
     node that write would cross domain boundaries mid-epoch, so node
     stores install a [global_publish] hook that buffers the save as
     an intent; the control deployment replays it at the epoch
     barrier in deterministic order. Saves
     that stay local (including a fleet tier's own global saves, where
     [resolve] is the store itself) are never intercepted. *)
  match t.global_publish with
  | Some publish when not (resolve t key == t) -> publish key value
  | _ -> save_here (resolve t key) key value

(* Merged latest for plain keys on a fleet-tier store: the value of
   the newest sample across all members. Ties on the timestamp go to
   the later member, matching the merged window ordering (stable by
   member position). *)
let merged_load t key =
  let best = ref None in
  List.iter
    (fun m ->
      match Hashtbl.find_opt m.entries key with
      | None -> ()
      | Some e -> (
        match Ring.newest e.samples with
        | None -> ()
        | Some (at, v) -> (
          match !best with
          | Some (at', _) when at' > at -> ()
          | _ -> best := Some (at, v))))
    (members t);
  match !best with Some (_, v) -> v | None -> 0.

let load t key =
  let t = resolve t key in
  t.loads <- t.loads + 1;
  if sharded t key then merged_load t key
  else match Hashtbl.find_opt t.entries key with Some e -> e.latest | None -> 0.

let mem t key =
  let t = resolve t key in
  if sharded t key then List.exists (fun m -> Hashtbl.mem m.entries key) (members t)
  else Hashtbl.mem t.entries key

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
        oldest_seq = e.pushes - Ring.length e.samples;
        count = 0;
        sum = 0.;
        sumsq = 0.;
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
    let seq = ref d.oldest_seq in
    Ring.iter
      (fun (_, v) ->
        admit d !seq v;
        incr seq)
      e.samples;
    e.demands <- d :: e.demands;
    t.n_demands <- t.n_demands + 1

let rec release_demand t ~key ~fn ~window_ns ~param =
  let t = resolve t key in
  if sharded t key then
    Array.iter (fun s -> release_demand s ~key ~fn ~window_ns ~param) t.shards;
  release_demand_here t ~key ~fn ~window_ns ~param

and release_demand_here t ~key ~fn ~window_ns ~param =
  match Hashtbl.find_opt t.entries key with
  | None -> ()
  | Some e -> (
    match find_demand e ~fn ~window_ns ~param with
    | None -> ()
    | Some d ->
      d.refs <- d.refs - 1;
      if d.refs <= 0 then begin
        e.demands <- List.filter (fun d' -> d' != d) e.demands;
        t.n_demands <- t.n_demands - 1
      end)

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

(* First ring index inside the window, found by binary search over the
   time-ordered samples — O(log n) instead of a full fold. *)
let first_inside e ~now ~window_ns =
  let cutoff = now - int_of_float window_ns in
  Ring.bsearch_first (fun (at, _) -> at > cutoff) e.samples

(* In-window (timestamp, value) pairs for one member, oldest first. *)
let member_window e ~now ~window_ns =
  let i0 = first_inside e ~now ~window_ns in
  Array.init (Ring.length e.samples - i0) (fun i -> Ring.get e.samples (i0 + i))

(* The merged window of a fleet-tier plain key: every member's
   in-window samples, sorted by timestamp. Each member's slice is
   already time-ordered and the sort is stable, so equal timestamps
   keep member order (own table first, then shards in index order) —
   the tie-break DELTA's merged oldest/newest must agree with. The
   window cutoff uses the fleet store's clock for every member; in a
   fleet all stores share the sim clock anyway. *)
let merged_window t ~key ~window_ns =
  let now = t.clock () in
  let parts =
    List.filter_map
      (fun m ->
        match Hashtbl.find_opt m.entries key with
        | None -> None
        | Some e -> Some (member_window e ~now ~window_ns))
      (members t)
  in
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
  else
    match Hashtbl.find_opt t.entries key with
    | None -> []
    | Some e ->
      let now = t.clock () in
      let cutoff = now - int_of_float window_ns in
      Ring.fold
        (fun acc (at, v) -> if at > cutoff then v :: acc else acc)
        [] e.samples

let window_samples t ~key ~window_ns =
  let t = resolve t key in
  if sharded t key then Array.map snd (merged_window t ~key ~window_ns)
  else
    match Hashtbl.find_opt t.entries key with
    | None -> [||]
    | Some e ->
      let i0 = first_inside e ~now:(t.clock ()) ~window_ns in
      Array.init (Ring.length e.samples - i0) (fun i -> snd (Ring.get e.samples (i0 + i)))

let samples_in_window t ~key ~window_ns =
  let t = resolve t key in
  if sharded t key then
    let now = t.clock () in
    List.fold_left
      (fun acc m ->
        match Hashtbl.find_opt m.entries key with
        | None -> acc
        | Some e -> acc + Ring.length e.samples - first_inside e ~now ~window_ns)
      0 (members t)
  else
    match Hashtbl.find_opt t.entries key with
    | None -> 0
    | Some e -> Ring.length e.samples - first_inside e ~now:(t.clock ()) ~window_ns

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
   re-scanning every shard's window. [value] is the one place the
   streaming answer formulas live: single-store and merged reads both
   answer through it. *)
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

  let value ~fn ~window_ns ~param s =
    match (fn : Gr_dsl.Ast.agg) with
    | Count -> float_of_int s.count
    | Sum -> s.sum
    | Rate -> s.sum /. (window_ns /. 1e9)
    | Avg -> if s.count = 0 then 0. else s.sum /. float_of_int s.count
    | Min -> (
      (* Float.min/Float.max propagate NaN, so the naive scan answers
         NaN whenever one is in the window; the deque (which NaN never
         enters) defers to the counter to agree. *)
      if s.nans > 0 then Float.nan
      else match s.minv with Some v -> v | None -> 0.)
    | Max -> (
      if s.nans > 0 then Float.nan
      else match s.maxv with Some v -> v | None -> 0.)
    | Stddev ->
      if s.count < 2 then 0.
      else begin
        let n = float_of_int s.count in
        let mean = s.sum /. n in
        sqrt (Float.max 0. ((s.sumsq /. n) -. (mean *. mean)))
      end
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
  let base = e.pushes - Ring.length e.samples in
  match d.fn with
  | Count | Sum | Rate | Avg | Stddev ->
    ({ Merge.empty with count = d.count; sum = d.sum; sumsq = d.sumsq; nans = d.nans }, expired)
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
          oldest = Some (Ring.get e.samples (d.oldest_seq - base));
          newest = Some (Ring.get e.samples (Ring.length e.samples - 1));
        },
        expired )
  | Quantile ->
    let i0 = first_inside e ~now ~window_ns:d.window_ns in
    let n = Ring.length e.samples - i0 in
    ( {
        Merge.empty with
        count = n;
        samples = Array.init n (fun i -> snd (Ring.get e.samples (i0 + i)));
      },
      expired + n )

(* The streaming read of one store: [Merge.value] of its demand's
   export. *)
let demand_result t e d =
  let state, scanned = export_demand t e d ~now:(t.clock ()) in
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
   store's clock) still sees. *)
let export_here t ~now ~key ~fn ~window_ns ~param =
  match Hashtbl.find_opt t.entries key with
  | None -> (Merge.empty, 0, true)
  | Some e -> (
    let streaming = if t.force_naive then None else find_demand e ~fn ~window_ns ~param in
    match streaming with
    | Some d ->
      let state, scanned = export_demand t e d ~now in
      (state, scanned, true)
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
      ({ !st with samples = Array.map snd win }, n, false))

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
    let fold () = fold_members t ~now:(t.clock ()) ~key ~fn ~window_ns ~param in
    let state, scanned, incremental =
      if Gr_trace.Selfcost.enabled () then
        Gr_trace.Selfcost.time Gr_trace.Selfcost.Store_merge fold
      else fold ()
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
    else
      match Hashtbl.find_opt t.entries key with
      | Some e when not t.force_naive -> (
        match find_demand e ~fn ~window_ns ~param with
        | Some d -> demand_result t e d
        | None -> naive_aggregate t ~key ~fn ~window_ns ~param)
      | _ -> naive_aggregate t ~key ~fn ~window_ns ~param
  in
  record_agg t ~key ~fn ~window_ns r

let aggregate t ~key ~fn ~window_ns ~param =
  (aggregate_result t ~key ~fn ~window_ns ~param).value

(* ---------- pre-resolved handles (JIT fast path) ----------

   A handle pins the resolve step and, lazily, the entry and streaming
   demand lookups, so the per-check read is a couple of loads instead
   of hashing the key and walking the demand list. Routing is fixed by
   [link] before any entry exists, so the resolved store never goes
   stale. Handles never create entries (that would be observable
   through [mem]); they cache an entry the first time it exists. A key
   that reads as a cross-shard merge has no single entry to pin: its
   handle records [merged] and every read takes the exact slow path.
   The fast aggregate path still checks [force_naive] and a cached
   demand's [refs]: a released demand (refs = 0) is no longer
   maintained, so the handle re-finds or falls back. Demands are only
   removed when refs reaches 0, so an object with refs > 0 is
   guaranteed live. *)

type load_handle = {
  lh_store : t; (* resolve t key, at creation *)
  lh_key : string;
  lh_merged : bool;
  mutable lh_entry : entry option;
}

let load_handle t key =
  let s = resolve t key in
  Some
    {
      lh_store = s;
      lh_key = key;
      lh_merged = sharded s key;
      lh_entry = Hashtbl.find_opt s.entries key;
    }

let handle_load h =
  let s = h.lh_store in
  if h.lh_merged then load s h.lh_key
  else begin
    s.loads <- s.loads + 1;
    match h.lh_entry with
    | Some e -> e.latest
    | None -> (
      match Hashtbl.find_opt s.entries h.lh_key with
      | Some e ->
        h.lh_entry <- Some e;
        e.latest
      | None -> 0.)
  end

type agg_handle = {
  ah_store : t;
  ah_key : string;
  ah_fn : Gr_dsl.Ast.agg;
  ah_window_ns : float;
  ah_param : float;
  ah_merged : bool;
  mutable ah_entry : entry option;
  mutable ah_demand : demand option;
}

let agg_handle t ~key ~fn ~window_ns ~param =
  let s = resolve t key in
  let e = Hashtbl.find_opt s.entries key in
  {
    ah_store = s;
    ah_key = key;
    ah_fn = fn;
    ah_window_ns = window_ns;
    ah_param = param;
    ah_merged = sharded s key;
    ah_entry = e;
    ah_demand = (match e with Some e -> find_demand e ~fn ~window_ns ~param | None -> None);
  }

let handle_aggregate h =
  let s = h.ah_store in
  if h.ah_merged || s.force_naive then
    aggregate_result s ~key:h.ah_key ~fn:h.ah_fn ~window_ns:h.ah_window_ns ~param:h.ah_param
  else begin
    (match h.ah_demand with
    | Some d when d.refs > 0 -> ()
    | _ ->
      (match h.ah_entry with
      | None -> h.ah_entry <- Hashtbl.find_opt s.entries h.ah_key
      | Some _ -> ());
      h.ah_demand <-
        (match h.ah_entry with
        | Some e -> find_demand e ~fn:h.ah_fn ~window_ns:h.ah_window_ns ~param:h.ah_param
        | None -> None));
    match (h.ah_entry, h.ah_demand) with
    | Some e, Some d when d.refs > 0 ->
      record_agg s ~key:h.ah_key ~fn:h.ah_fn ~window_ns:h.ah_window_ns (demand_result s e d)
    | _ -> aggregate_result s ~key:h.ah_key ~fn:h.ah_fn ~window_ns:h.ah_window_ns ~param:h.ah_param
  end

let on_save t fn = Vec.push t.subscribers fn
let save_count t = t.saves
let load_count t = t.loads
let agg_hit_count t = t.agg_hits
let agg_miss_count t = t.agg_misses
let expired_count t = t.expired
