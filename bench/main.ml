(* Benchmark harness: regenerates every figure, table and listing in
   the paper's evaluation plus the ablations documented in DESIGN.md.

     dune exec bench/main.exe              # everything
     dune exec bench/main.exe -- fig2      # one experiment

   Experiments:
     fig2         Figure 2 latency series (LinnOS vs guardrailed)
     fig1-props   Figure 1 left: P1-P6 detection matrix
     fig1-actions Figure 1 right: A1-A4 actions applied
     listing2     Listings 1-2: compile + verify the example spec
     overhead     Ablation A: TIMER interval sweep (asserts the §4.1 trade-off)
     deps         Ablation B: timer vs dependency triggering
     oscillation  Ablation C: guardrail feedback loops
     incremental  Ablation D: incremental deployment
     compile-stats Ablation E: compiler statistics over specs/
     scale        Ablation F: monitor-count scalability (incl. fleet sweep)
     obs          Ablation G: observability self-overhead (provenance, metrics)
     agg          Ablation K: naive vs incremental window aggregation
     fleet        Ablation H: fleet-wide merged aggregation + canary
     soak         Chaos soak: fault injection vs guardrail invariants
     verify       Ablation I: grc verify pass cost (fixpoint, model checking)
     tiers        Ablation J: ns/check by execution tier x monitor count
     nn           LinnOS training time and decision ns (learned-policy kernel)

   With --json, experiments that support it (fig2, overhead, scale,
   tiers, obs, agg, soak, nn) print one machine-readable JSON document per
   line to stdout instead of the human tables, with per-monitor
   telemetry sourced from gr_trace — the BENCH_*.json format. fig2
   --json additionally writes fig2_trace.json, a Chrome trace_event
   file of the guarded arm. Every host time is a median of
   [Common.runs] batches with min and max (Common.measure). --smoke
   shrinks sweep sizes so the suite finishes in seconds (the
   [make bench-smoke] CI mode). *)

let experiments : (string * (json:bool -> unit)) list =
  [
    ("fig2", Fig2.run);
    ("fig1-props", fun ~json:_ -> Fig1_props.run ());
    ("fig1-actions", fun ~json:_ -> Fig1_actions.run ());
    ("listing2", fun ~json:_ -> Listing2.run ());
    ("overhead", Overhead.run);
    ("deps", fun ~json:_ -> Deps_ablation.run ());
    ("oscillation", fun ~json:_ -> Oscillation.run ());
    ("incremental", fun ~json:_ -> Incremental.run ());
    ("compile-stats", fun ~json:_ -> Compile_stats.run ());
    ("scale", Scale.run);
    ("obs", Obs.run);
    ("agg", Agg.run);
    ("fleet", Fleet_bench.run);
    ("soak", Soak.run);
    ("verify", fun ~json:_ -> Verify_bench.run ());
    ("tiers", Tiers.run);
    ("nn", Nn.run);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let json = List.mem "--json" args in
  Common.smoke := List.mem "--smoke" args;
  let requested = List.filter (fun a -> a <> "--json" && a <> "--smoke") args in
  match requested with
  | [] -> List.iter (fun (_, run) -> run ~json) experiments
  | names ->
    List.iter
      (fun name ->
        match List.assoc_opt name experiments with
        | Some run -> run ~json
        | None ->
          Printf.eprintf "unknown experiment %S; known: %s\n" name
            (String.concat ", " (List.map fst experiments));
          exit 1)
      names
