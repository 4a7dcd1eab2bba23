(* Ablation K — naive scans vs incremental window aggregation.

   Drives a feature store directly (no kernel, no workload): fill a
   key's window to capacity, then alternate save/check in steady state
   so the window population stays pinned at [window] samples. The
   naive arm forces the full-scan oracle path; the incremental arm
   registers the demand up front, as Engine.install does. Reported
   per aggregate function: host ns per save+check for both arms (a
   median of Common.runs batches, with min and max), the speedup, and
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
   demand-maintenance cost on save and vice versa. Every batch
   continues the steady state the previous one left. Returns
   (ns per check, bytes allocated per check). *)
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
  let bytes, ns =
    Common.measure ~per:(float_of_int iters) (fun () () ->
        let bytes0 = Gc.allocated_bytes () in
        for i = 1 to iters do
          now := !now + step;
          Gr_runtime.Feature_store.save store "k" (float_of_int (i mod 89));
          sink :=
            !sink +. Gr_runtime.Feature_store.aggregate store ~key:"k" ~fn ~window_ns ~param
        done;
        (Gc.allocated_bytes () -. bytes0) /. float_of_int iters)
  in
  ignore !sink;
  (ns, bytes)

let run ~json =
  let smoke = !Common.smoke in
  let window = if smoke then 256 else 4096 in
  let iters = if smoke then 2_000 else 20_000 in
  (* The naive arm is the slow one; ns/check is a per-op mean, so it
     can run fewer iterations without biasing the comparison. *)
  let naive_iters = max 200 (iters / 20) in
  if not json then begin
    Common.section
      (Printf.sprintf "Ablation K — window aggregation, %d-sample window" window);
    Printf.printf "  %-10s %26s %22s %9s %12s %12s\n" "fn" "naive ns/chk [min, max]"
      "incr ns/chk [min, max]" "speedup" "naive B/chk" "incr B/chk"
  end;
  let rows =
    List.map
      (fun (fn, param) ->
        let naive_ns, naive_bytes = run_arm ~naive:true ~fn ~param ~window ~iters:naive_iters in
        let incr_ns, incr_bytes = run_arm ~naive:false ~fn ~param ~window ~iters in
        let speedup = Common.ratio naive_ns incr_ns in
        if not json then
          Printf.printf "  %-10s %26s %22s %8.1fx %12.1f %12.1f\n" (fn_name fn)
            (Common.timing_str "%.0f" naive_ns)
            (Common.timing_str "%.0f" incr_ns)
            speedup.median naive_bytes incr_bytes;
        (fn, param, naive_ns, incr_ns, speedup, naive_bytes, incr_bytes))
      all_fns
  in
  let streaming_min =
    List.fold_left
      (fun acc (fn, _, _, _, (speedup : Common.timing), _, _) ->
        if fn = Gr_dsl.Ast.Quantile then acc else Float.min acc speedup.median)
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
                  (fun (fn, param, naive_ns, incr_ns, speedup, naive_b, incr_b) ->
                    Obj
                      [
                        ("fn", Str (fn_name fn));
                        ("param", Common.json_num param);
                        ("naive_ns_per_check", Common.json_timing naive_ns);
                        ("incremental_ns_per_check", Common.json_timing incr_ns);
                        ("speedup", Common.json_timing speedup);
                        ("naive_bytes_per_check", Common.json_num naive_b);
                        ("incremental_bytes_per_check", Common.json_num incr_b);
                      ])
                  rows) );
         ])
  else
    Printf.printf "  min streaming speedup (QUANTILE excluded): %.1fx\n" streaming_min
