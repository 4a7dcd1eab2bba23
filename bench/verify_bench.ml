(* Ablation I — cost of the grc verify passes as deployments grow.

   Two synthetic sweeps, timed wall-clock (median of Common.runs runs,
   with min and max):

   - fixpoint: a ring of N monitors, each SAVing the next key from
     the previous one (LOAD(k_i) / 2 + 1), so every key depends on
     every other through the cycle and the dataflow solver must widen
     to terminate. Reports rounds/widenings and ms per deployment.

   - machine: P independent REPLACE/RESTORE storm pairs, the
     worst-case shape for the action-machine checker: the reachable
     state space doubles with every policy (2^P slot combinations)
     and each of the P GRL203 findings pays for counterexample
     schedule synthesis. Timed given the deployment's fixpoint,
     computed once outside the batches as Audit.run does. Truncation
     at the default 4096-state cap is part of the result, not an
     error. *)

let chain_source n =
  String.concat "\n"
    (List.init n (fun i ->
         Printf.sprintf
           "guardrail c%d { trigger: { TIMER(0, 1s) } rule: { AVG(ext, 1s) < 100 } action: { \
            SAVE(k%d, LOAD(k%d) / 2 + 1) } }"
           i ((i + 1) mod n) i))

let storm_source pairs =
  String.concat "\n"
    (List.concat
       (List.init pairs (fun j ->
            [
              Printf.sprintf
                "guardrail breaker%d { trigger: { TIMER(0, 100ms) } rule: { \
                 QUANTILE(m%d_lat, 0.95, 100ms) < 900 } action: { REPLACE(\"p%d\") } }"
                j j j;
              Printf.sprintf
                "guardrail prober%d { trigger: { TIMER(50ms, 100ms) } rule: { LOAD(m%d_err) \
                 >= 1 } action: { RESTORE(\"p%d\") } }"
                j j j;
            ])))

let compile src =
  let spec = Gr_dsl.Parser.parse_exn src in
  List.map Gr_compiler.Opt.optimize_monitor (Gr_compiler.Lower.spec spec)

let run () =
  Common.section "Ablation I — grc verify pass cost (dataflow fixpoint, model checking)";
  let smoke = !Common.smoke in
  Printf.printf "%-10s %9s %6s %7s %10s %26s\n" "fixpoint" "monitors" "keys" "rounds"
    "widenings" "wall(ms) [min, max]";
  List.iter
    (fun n ->
      let monitors = compile (chain_source n) in
      let df, ms = Common.measure ~per:1e6 (fun () () -> Gr_analysis.Dataflow.fixpoint monitors) in
      if not (Gr_analysis.Dataflow.is_post_fixpoint df) then
        failwith "verify bench: fixpoint is not a post-fixpoint";
      Printf.printf "%-10s %9d %6d %7d %10d %26s\n" "" n
        (List.length df.Gr_analysis.Dataflow.keys)
        df.Gr_analysis.Dataflow.rounds df.Gr_analysis.Dataflow.widenings
        (Common.timing_str "%.2f" ms))
    (if smoke then [ 8; 32 ] else [ 8; 32; 128; 512 ]);
  print_newline ();
  Printf.printf "%-10s %9s %7s %12s %7s %6s %26s\n" "machine" "monitors" "states"
    "transitions" "storms" "trunc" "wall(ms) [min, max]";
  List.iter
    (fun pairs ->
      let df = Gr_analysis.Dataflow.fixpoint (compile (storm_source pairs)) in
      let result, ms = Common.measure ~per:1e6 (fun () () -> Gr_analysis.Machine.check df) in
      Printf.printf "%-10s %9d %7d %12d %7d %6s %26s\n" "" (2 * pairs)
        result.Gr_analysis.Machine.states result.Gr_analysis.Machine.transitions
        (List.length result.Gr_analysis.Machine.findings)
        (if result.Gr_analysis.Machine.truncated then "yes" else "no")
        (Common.timing_str "%.2f" ms))
    (if smoke then [ 1; 2; 4 ] else [ 1; 2; 4; 8; 12 ])
