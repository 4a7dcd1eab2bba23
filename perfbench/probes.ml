(* Batched probes: one layer operation timed over at least 10^5 calls,
   in batches between two monotonic clock reads, so a 20ns operation
   resolves. Operations that take microseconds stop at a time cap
   instead of the call count. They run after the repetitions, on the
   last repetition's state, and perturb nothing that was measured. *)

module Store = Gr_runtime.Feature_store
module Engine = Gr_runtime.Engine

type t = {
  save_ns : float;
  save_minor_words : float;
  save_promoted_words : float;
  dispatch_ns : float;  (** hook fan-out overhead per listener *)
  handle_load_ns : float;
  agg_ns : float;  (** aggregate_result on the workload's read store *)
  check_ns : float;  (** Engine.check_now, round robin over the workload monitors *)
  record_ns : float;  (** Metrics.monitor lookup + record_check, as the engine pays per check *)
  admit_ms : Client.kind -> float;
}

let min_calls = 100_000

let per_call ?(calls = min_calls) ?(batch = 1000) ?(cap_ns = 1_000_000_000) f =
  let t0 = Clock.now_ns () in
  let n = ref 0 in
  while !n < calls && Clock.now_ns () - t0 < cap_ns do
    let base = !n in
    for i = base to base + batch - 1 do
      f i
    done;
    n := base + batch
  done;
  (float_of_int (Clock.now_ns () - t0) /. float_of_int !n, !n)

(* Store.save on the run's own store after the run, keys round robin in
   the run's forwarding order: same demand shapes, same on_save
   subscribers, same full rings, same heap. The save path never reads
   the clock's window, so the stopped clock changes nothing. *)
let saves store keys =
  let nk = Array.length keys in
  let save i = Store.save store keys.(i mod nk) (float_of_int (i land 1023)) in
  let minor0 = Gc.minor_words () and promoted0 = (Gc.quick_stat ()).promoted_words in
  let ns, n = per_call ~calls:(4 * min_calls) save in
  let calls = float_of_int n in
  let minor = (Gc.minor_words () -. minor0) /. calls in
  let promoted = ((Gc.quick_stat ()).promoted_words -. promoted0) /. calls in
  (ns, minor, promoted)

(* Hook fan-out overhead per listener: Hooks.fire on a private table
   whose listeners do what a forwarder does before it saves, look one
   argument up in blk:io_complete's argument list. *)
let dispatch () =
  let hooks = Gr_kernel.Hooks.create () and listeners = 100 in
  for _ = 1 to listeners do
    ignore
      (Gr_kernel.Hooks.subscribe hooks "probe" (fun args ->
           ignore (Sys.opaque_identity (List.assoc_opt "false_submit" args) : float option))
        : Gr_kernel.Hooks.subscription)
  done;
  let args =
    [
      ("latency_us", 120.);
      ("dev", 1.);
      ("redirected", 0.);
      ("false_submit", 0.);
      ("false_revoke", 0.);
      ("hedged", 0.);
      ("hedge_counterfactual_us", 120.);
    ]
  in
  fst (per_call ~calls:10_000 ~batch:100 (fun _ -> Gr_kernel.Hooks.fire hooks "probe" args))
  /. float_of_int listeners

let handle_loads store keys =
  let hs = Array.of_list (List.filter_map (Store.load_handle store) (Array.to_list keys)) in
  let n = Array.length hs in
  if n = 0 then 0.
  else fst (per_call (fun i -> ignore (Sys.opaque_identity (Store.handle_load hs.(i mod n)) : float)))

let aggregates store keys =
  let n = Array.length keys in
  fst
    (per_call ~batch:100 (fun i ->
         ignore
           (Sys.opaque_identity
              (Store.aggregate_result store ~key:keys.(i mod n) ~fn:Gr_dsl.Ast.Avg ~window_ns:1e9
                 ~param:0.)
             : Store.agg_result)))

let checks engine handles =
  let n = Array.length handles in
  fst (per_call ~batch:100 (fun i -> ignore (Engine.check_now engine handles.(i mod n) : bool)))

let records () =
  let reg = Gr_trace.Metrics.create () in
  let names = Array.init 64 (Printf.sprintf "probe_%d") in
  fst
    (per_call (fun i ->
         Gr_trace.Metrics.record_check
           (Gr_trace.Metrics.monitor reg names.(i land 63))
           ~cost_ns:(float_of_int (40 + (i land 15)))
           ~insts:12 ~samples:1 ~violated:false))

let admits ~seed =
  let client_rng = Specs.stream ~seed 6 in
  let time src =
    fst
      (per_call ~calls:40 ~batch:10 (fun _ ->
           ignore (Gr_analysis.Audit.admit src : Gr_analysis.Audit.admission)))
    /. 1e6
  in
  let promote = time (Client.promote_spec ~bound:(1000. +. Gr_util.Rng.float client_rng 1000.)) in
  let rollback = time Client.rollback_spec in
  let reject = time Client.reject_spec in
  function Client.Promote -> promote | Client.Rollback -> rollback | Client.Lint_reject -> reject

(* The save probe runs last: it is the only one that writes. *)
let measure ~seed ~save_store ~save_keys ~load_store ~load_keys ~agg_store ~agg_keys ~engine
    ~handles =
  let dispatch_ns = dispatch () in
  let handle_load_ns = handle_loads load_store load_keys in
  let agg_ns = aggregates agg_store agg_keys in
  let check_ns = checks engine handles in
  let record_ns = records () in
  let admit_ms = admits ~seed in
  let save_ns, save_minor_words, save_promoted_words = saves save_store save_keys in
  {
    save_ns;
    save_minor_words;
    save_promoted_words;
    dispatch_ns;
    handle_load_ns;
    agg_ns;
    check_ns;
    record_ns;
    admit_ms;
  }
