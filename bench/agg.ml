(* Ablation G — naive scans vs incremental window aggregation.

   Drives a feature store directly (no kernel, no workload): fill a
   key's window to capacity, then alternate save/check in steady state
   so the window population stays pinned at [window] samples. The
   naive arm forces the full-scan oracle path; the incremental arm
   registers the demand up front, as Engine.install does. Reported
   per aggregate function: checks/sec for both arms, the speedup, and
   allocation per check (Gc.allocated_bytes delta / iterations).

   QUANTILE is the designed exception: its incremental path still
   ranks the in-window suffix (binary-searched cutoff, no rescan of
   expired samples), so its speedup hovers near 1x at full windows —
   the "min streaming speedup" line excludes it. *)

let all_fns : (Gr_dsl.Ast.agg * float) list =
  [
    (Count, 0.);
    (Sum, 0.);
    (Avg, 0.);
    (Rate, 0.);
    (Stddev, 0.);
    (Min, 0.);
    (Max, 0.);
    (Delta, 0.);
    (Quantile, 0.95);
  ]

let fn_name (fn : Gr_dsl.Ast.agg) =
  match fn with
  | Avg -> "AVG"
  | Rate -> "RATE"
  | Count -> "COUNT"
  | Sum -> "SUM"
  | Min -> "MIN"
  | Max -> "MAX"
  | Stddev -> "STDDEV"
  | Quantile -> "QUANTILE"
  | Delta -> "DELTA"

let window_ns = 1e9

(* One arm: fresh store per (fn, mode) so the naive arm pays no
   demand-maintenance cost on save and vice versa. Returns
   (checks/sec, bytes allocated per check). *)
let run_arm ~naive ~fn ~param ~window ~iters =
  let now = ref 0 in
  let store =
    Gr_runtime.Feature_store.create ~clock:(fun () -> !now) ~capacity_per_key:window ()
  in
  if not naive then
    Gr_runtime.Feature_store.register_demand store ~key:"k" ~fn ~window_ns ~param;
  Gr_runtime.Feature_store.set_force_naive store naive;
  let step = int_of_float window_ns / window in
  for i = 1 to window do
    now := !now + step;
    Gr_runtime.Feature_store.save store "k" (float_of_int (i mod 97))
  done;
  let sink = ref 0. in
  let bytes0 = Gc.allocated_bytes () in
  let t0 = Common.now_ns () in
  for i = 1 to iters do
    now := !now + step;
    Gr_runtime.Feature_store.save store "k" (float_of_int (i mod 89));
    sink :=
      !sink +. Gr_runtime.Feature_store.aggregate store ~key:"k" ~fn ~window_ns ~param
  done;
  let t1 = Common.now_ns () in
  let bytes1 = Gc.allocated_bytes () in
  ignore !sink;
  let secs = Float.max 1e-9 ((t1 -. t0) /. 1e9) in
  (float_of_int iters /. secs, (bytes1 -. bytes0) /. float_of_int iters)

let run ~json =
  let smoke = !Common.smoke in
  let window = if smoke then 256 else 4096 in
  let iters = if smoke then 2_000 else 20_000 in
  (* The naive arm is the slow one; checks/sec is a rate, so it can
     run fewer iterations without biasing the comparison. *)
  let naive_iters = max 200 (iters / 20) in
  if not json then begin
    Common.section
      (Printf.sprintf "Ablation G — window aggregation, %d-sample window" window);
    Printf.printf "  %-10s %14s %14s %9s %12s %12s\n" "fn" "naive/s" "incr/s" "speedup"
      "naive B/chk" "incr B/chk"
  end;
  let rows =
    List.map
      (fun (fn, param) ->
        let naive_cps, naive_bytes = run_arm ~naive:true ~fn ~param ~window ~iters:naive_iters in
        let incr_cps, incr_bytes = run_arm ~naive:false ~fn ~param ~window ~iters in
        let speedup = incr_cps /. naive_cps in
        if not json then
          Printf.printf "  %-10s %14.0f %14.0f %8.1fx %12.1f %12.1f\n" (fn_name fn)
            naive_cps incr_cps speedup naive_bytes incr_bytes;
        (fn, param, naive_cps, incr_cps, speedup, naive_bytes, incr_bytes))
      all_fns
  in
  let streaming_min =
    List.fold_left
      (fun acc (fn, _, _, _, speedup, _, _) ->
        if fn = Gr_dsl.Ast.Quantile then acc else Float.min acc speedup)
      infinity rows
  in
  if json then
    let open Common.Json in
    Common.print_json
      (Obj
         [
           ("experiment", Str "agg");
           ("window_samples", Common.json_int window);
           ("window_ns", Num window_ns);
           ("min_streaming_speedup", Common.json_num streaming_min);
           ( "rows",
             Arr
               (List.map
                  (fun (fn, param, naive_cps, incr_cps, speedup, naive_b, incr_b) ->
                    Obj
                      [
                        ("fn", Str (fn_name fn));
                        ("param", Common.json_num param);
                        ("naive_checks_per_sec", Common.json_num naive_cps);
                        ("incremental_checks_per_sec", Common.json_num incr_cps);
                        ("speedup", Common.json_num speedup);
                        ("naive_bytes_per_check", Common.json_num naive_b);
                        ("incremental_bytes_per_check", Common.json_num incr_b);
                      ])
                  rows) );
         ])
  else
    Printf.printf "  min streaming speedup (QUANTILE excluded): %.1fx\n" streaming_min
