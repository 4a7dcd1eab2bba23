(* Benchmark harness: regenerates every figure, table and listing in
   the paper's evaluation plus the ablations documented in DESIGN.md.

     dune exec bench/main.exe              # everything
     dune exec bench/main.exe -- fig2      # one experiment

   Experiments:
     fig2         Figure 2 latency series (LinnOS vs guardrailed)
     fig1-props   Figure 1 left: P1-P6 detection matrix
     fig1-actions Figure 1 right: A1-A4 actions applied
     listing2     Listings 1-2: compile + verify the example spec
     overhead     Ablation A: VM microbenchmarks + interval sweep
     deps         Ablation B: timer vs dependency triggering
     oscillation  Ablation C: guardrail feedback loops
     incremental  Ablation D: incremental deployment
     compile-stats Ablation E: compiler statistics over specs/
     scale        Ablation F: monitor-count scalability (incl. fleet sweep)
     obs          Ablation G: observability self-overhead (provenance, metrics)
     agg          Ablation G: naive vs incremental window aggregation
     fleet        Ablation H: fleet-wide merged aggregation + canary
     soak         Chaos soak: fault injection vs guardrail invariants
     verify       Ablation I: grc verify pass cost (fixpoint, model checking)
     serve        Ablation J: live control-plane rollout lifecycle cost
     tiers        Execution tiers: ns/check by tier x monitor count

   With --json, experiments that support it (fig2, overhead, scale,
   agg) print one machine-readable JSON document to stdout instead of
   the human tables, with per-monitor telemetry sourced from gr_trace —
   the BENCH_*.json perf-trajectory format. fig2 --json additionally
   writes fig2_trace.json, a Chrome trace_event file of the guarded
   arm. --smoke shrinks sweep sizes so the suite finishes in seconds
   (the [make bench-smoke] CI mode). *)

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
    ("serve", Serve_bench.run);
    ("tiers", Tiers.run);
  ]

let set_engine v =
  match Guardrails.Vm.tier_of_string v with
  | Some t -> Common.engine := t
  | None ->
    Printf.eprintf "bench: --engine expects tree or jit (got %s)\n" v;
    exit 2

(* --engine TIER / --engine=TIER pins the monitor execution tier for
   every deployment the experiments build; figures are tier-invariant
   (make jit-smoke byte-diffs fig2 across both). *)
let rec strip_engine acc = function
  | [] -> List.rev acc
  | "--engine" :: v :: rest ->
    set_engine v;
    strip_engine acc rest
  | a :: rest when String.length a > 9 && String.sub a 0 9 = "--engine=" ->
    set_engine (String.sub a 9 (String.length a - 9));
    strip_engine acc rest
  | a :: rest -> strip_engine (a :: acc) rest

let () =
  let args = strip_engine [] (List.tl (Array.to_list Sys.argv)) in
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
