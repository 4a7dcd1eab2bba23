(* grc — the guardrail compiler CLI.

   Subcommands:
     grc check   FILE     parse and typecheck
     grc compile FILE     full pipeline; print disassembly + verifier stats
     grc deps    FILE     interference edges and feedback-loop cycles
     grc lint    FILE...  static analysis: abstract interpretation over each
                          rule plus whole-deployment interference checks;
                          exit 0 clean, 1 warnings (with --strict), 2 errors
     grc verify  FILE...  lint on the inter-rule dataflow fixpoint, plus
                          action-machine model checking (GRL2xx) with
                          executable counterexamples and, under --fleet,
                          GLOBAL-key race analysis (GRL301)
     grc fmt     FILE     parse and pretty-print canonical form
     grc run     FILE     install against an idle simulated kernel and run;
                          report per-monitor telemetry, optionally export a
                          Chrome trace_event file (--trace) and an
                          OpenMetrics text exposition (--metrics)
     grc explain TRACE    reconstruct the causal chain behind a decision
                          from a trace: dispatch -> hook -> check -> actions,
                          with rule disassembly and input provenance *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Spec input convention shared by grc lint / verify / push: the
   filename "-" means standard input. This is the same source text
   the serve daemon's admission controller sees — a CI pipeline can
   pipe the exact bytes it is about to push through `grc verify -`
   first. The returned label replaces the path in diagnostics. *)
let read_spec_input path =
  if path = "-" then ("<stdin>", In_channel.input_all stdin) else (path, read_file path)

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Guardrail source file.")

(* The one spec loader: read (the filename "-" is standard input),
   parse and typecheck. The error is ready for stderr: one problem per
   line, tagged with the path (or "<stdin>"). grc run / serve / soak
   pass [~usage]: there a bad spec is a usage error (exit 2, one
   line), so a missing file gets its own message and only the first
   problem is reported, prefixed "grc: ". Their FILE is a plain
   string, not Arg.file, so that check is ours. *)
let load_spec ?(usage = false) path =
  let line fmt = Format.kasprintf (fun s -> if usage then "grc: " ^ s else s) fmt in
  if usage && not (Sys.file_exists path) then Error (Printf.sprintf "grc: %s: no such file" path)
  else
    match read_spec_input path with
    | exception Sys_error e -> Error ("grc: " ^ e)
    | label, src -> (
      match Guardrails.Parser.parse src with
      | Error (pos, msg) ->
        Error (line "%s: parse error at %a: %s" label Guardrails.Ast.pp_pos pos msg)
      | Ok spec -> (
        match Guardrails.Typecheck.check_spec spec with
        | Error (e :: rest) ->
          let errs = if usage then [ e ] else e :: rest in
          Error
            (String.concat "\n"
               (List.map (fun e -> line "%s: %a" label Guardrails.Typecheck.pp_error e) errs))
        | Error [] | Ok () -> Ok (label, src, spec)))

let with_spec path f =
  match load_spec path with
  | Error msg ->
    prerr_endline msg;
    1
  | Ok (_, _, spec) -> f spec

let check_cmd =
  let run path =
    with_spec path (fun spec ->
        Format.printf "%s: %d guardrail(s) OK@." path (List.length spec);
        0)
  in
  Cmd.v (Cmd.info "check" ~doc:"Parse and typecheck a guardrail spec")
    Term.(const run $ file_arg)

let compile_cmd =
  let run path no_opt =
    with_spec path (fun spec ->
        let monitors = Guardrails.Lower.spec spec in
        let monitors =
          if no_opt then monitors else List.map Guardrails.Opt.optimize_monitor monitors
        in
        List.fold_left
          (fun rc m ->
            match Guardrails.Verify.verify m with
            | Error errs ->
              Format.eprintf "monitor %s rejected:@." m.Guardrails.Monitor.name;
              List.iter (fun e -> Format.eprintf "  %s@." e) errs;
              1
            | Ok stats ->
              Format.printf "%a" Guardrails.Monitor.pp m;
              Format.printf
                "  verified: %d rule insts, %d total insts, %d slots, est cost %.0fns/check@.@."
                stats.rule_insts stats.total_insts stats.n_slots stats.est_cost_ns;
              rc)
          0 monitors)
  in
  let no_opt =
    Arg.(value & flag & info [ "no-opt" ] ~doc:"Skip the CSE/DCE optimisation passes.")
  in
  Cmd.v (Cmd.info "compile" ~doc:"Compile, verify and disassemble monitors")
    Term.(const run $ file_arg $ no_opt)

let deps_cmd =
  let run path =
    with_spec path (fun spec ->
        let monitors = List.map Guardrails.Opt.optimize_monitor (Guardrails.Lower.spec spec) in
        let edges = Guardrails.Deps.interference monitors in
        if edges = [] then Format.printf "no interference edges@."
        else
          List.iter
            (fun e ->
              Format.printf "%s -> %s (via key %s)@." e.Guardrails.Deps.writer e.reader e.key)
            edges;
        (match Guardrails.Deps.cycles monitors with
        | [] -> Format.printf "no feedback-loop cycles@."
        | cycles ->
          List.iter
            (fun cycle ->
              Format.printf "FEEDBACK LOOP: %s@." (String.concat " -> " (cycle @ [ List.hd cycle ])))
            cycles);
        List.iter
          (fun m ->
            Format.printf "monitor %s reads {%s} writes {%s}@." m.Guardrails.Monitor.name
              (String.concat ", " (Guardrails.Monitor.reads m))
              (String.concat ", " (Guardrails.Monitor.writes m)))
          monitors;
        0)
  in
  Cmd.v
    (Cmd.info "deps" ~doc:"Dependency analysis: interference edges and feedback loops")
    Term.(const run $ file_arg)

(* grc lint / grc verify: every FILE loads into one deployment of
   optimised monitors, each tagged with its node id (the FILE's
   index). Under --fleet each FILE is one node's deployment: node-local
   keys and monitor names are qualified per file, so interference
   checks only fire for genuinely shared (GLOBAL) state. Also returns
   the FILE each monitor name came from. A load error is printed and
   exits 2. *)
let load_deployment ~fleet paths =
  let loaded = List.map (fun path -> load_spec path) paths in
  match List.filter_map (function Error e -> Some e | Ok _ -> None) loaded with
  | _ :: _ as errors ->
    List.iter prerr_endline errors;
    Error 2
  | [] ->
    let tagged =
      List.concat
        (List.mapi
           (fun node_id -> function
             | Error _ -> []
             | Ok (label, _, spec) ->
               List.map
                 (fun m ->
                   let m = Guardrails.Opt.optimize_monitor m in
                   (node_id, label, if fleet then Guardrails.Monitor.qualify ~node_id m else m))
                 (Guardrails.Lower.spec spec))
           loaded)
    in
    let files = Hashtbl.create 16 in
    List.iter
      (fun (_, file, (m : Guardrails.Monitor.t)) ->
        if not (Hashtbl.mem files m.name) then Hashtbl.add files m.name file)
      tagged;
    Ok (List.map (fun (node_id, _, m) -> (node_id, m)) tagged, Hashtbl.find_opt files)

(* grc lint / grc verify output: each diagnostic tagged with the FILE
   that defined its monitor — a leading "file" field under --json, a
   "FILE: " prefix and any repro line in text, which then ends with
   [footer]. Exit 2 on errors, 1 on warnings under --strict, else 0. *)
let print_diagnostics ~json ~strict ~file_of ?footer diags =
  let module D = Guardrails.Diagnostic in
  let file (d : D.t) = Option.bind d.monitor file_of in
  if json then begin
    let with_file d =
      let file = match file d with Some f -> Guardrails.Json.Str f | None -> Guardrails.Json.Null in
      match D.to_json d with
      | Guardrails.Json.Obj fields -> Guardrails.Json.Obj (("file", file) :: fields)
      | other -> other
    in
    print_endline (Guardrails.Json.to_string (Guardrails.Json.Arr (List.map with_file diags)))
  end
  else begin
    List.iter
      (fun (d : D.t) ->
        let prefix = match file d with Some f -> f ^ ": " | None -> "" in
        Format.printf "%s%a@." prefix D.pp d;
        Option.iter (Format.printf "  repro: %s@.") d.repro)
      diags;
    Option.iter (Format.printf "%s@.") footer
  end;
  let has sev = List.exists (fun (d : D.t) -> d.severity = sev) diags in
  if has D.Error then 2 else if has D.Warning && strict then 1 else 0

let lint_cmd =
  let run paths json strict budget fleet =
    match load_deployment ~fleet paths with
    | Error code -> code
    | Ok (tagged, file_of) ->
      let config = { Guardrails.Analyze.hook_budget_ns = budget } in
      let df = Guardrails.Dataflow.fixpoint (List.map snd tagged) in
      let diags = Guardrails.Analyze.deployment ~config df in
      print_diagnostics ~json ~strict ~file_of diags
  in
  let files =
    Arg.(
      non_empty & pos_all string []
      & info [] ~docv:"FILE"
          ~doc:
            "Guardrail source file(s); linted together as one deployment. $(b,-) reads a \
             spec from standard input (the same text a serve push would carry).")
  in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit diagnostics as a JSON array.") in
  let strict =
    Arg.(
      value & flag
      & info [ "strict" ] ~doc:"Exit 1 when warnings are found (errors always exit 2).")
  in
  let budget =
    Arg.(
      value & opt float 500.
      & info [ "hook-budget-ns" ] ~docv:"NS"
          ~doc:"Per-FUNCTION-hook cumulative static cost budget in nanoseconds (default 500).")
  in
  let fleet =
    Arg.(
      value & flag
      & info [ "fleet" ]
          ~doc:
            "Treat each FILE as one fleet node's deployment: node-local keys are qualified \
             per file, so interference checks (GRL101/GRL102) only fire for genuinely \
             shared state such as GLOBAL keys.")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Static analysis: abstract interpretation over each rule and whole-deployment \
          interference checks")
    Term.(const run $ files $ json $ strict $ budget $ fleet)

(* grc verify: the whole-deployment static pass family on top of lint.
   Runs the inter-rule dataflow fixpoint (so GRL001-005 see through
   SAVE-defined keys), the action-machine model checker (GRL201-203,
   with executable counterexample schedules), and — under --fleet —
   the GLOBAL-key race analysis (GRL301). Exit codes match grc lint:
   0 clean, 1 warnings with --strict, 2 errors. *)
let verify_cmd =
  let run paths json strict budget fleet max_states canary_strs =
    let parse_canary s =
      let bad () =
        Error (Printf.sprintf "grc verify: --canary expects POLICY=ID[,ID...] (got %S)" s)
      in
      match String.index_opt s '=' with
      | None -> bad ()
      | Some i -> (
        let name = String.sub s 0 i in
        let ids = String.sub s (i + 1) (String.length s - i - 1) in
        if name = "" then bad ()
        else
          match
            List.map
              (fun p -> int_of_string_opt (String.trim p))
              (String.split_on_char ',' ids)
          with
          | parts when List.for_all Option.is_some parts ->
            Ok (name, List.filter_map Fun.id parts)
          | _ -> bad ())
    in
    let canaries_r =
      List.fold_left
        (fun acc s ->
          match (acc, parse_canary s) with
          | Error e, _ -> Error e
          | _, Error e -> Error e
          | Ok l, Ok c -> Ok (l @ [ c ]))
        (Ok []) canary_strs
    in
    match canaries_r with
    | Error msg ->
      prerr_endline msg;
      2
    | Ok canaries -> (
      match load_deployment ~fleet paths with
      | Error code -> code
      | Ok (tagged, file_of) ->
        (* A repro command line only makes sense when there is exactly
           one spec file to hand to grc soak --spec. *)
        let repro =
          match paths with
          | [ spec ] -> Some (fun s -> Gr_fault.Replay.repro_command ~spec s)
          | _ -> None
        in
        let config =
          {
            Guardrails.Audit.lint = { Guardrails.Analyze.hook_budget_ns = budget };
            machine = { Guardrails.Machine.max_states; canaries };
            fleet;
          }
        in
        let audit = Guardrails.Audit.run ~config ?repro tagged in
        let machine = audit.Guardrails.Audit.machine in
        let footer =
          Printf.sprintf "verify: %d diagnostic(s); %d state(s), %d transition(s) explored%s"
            (List.length audit.Guardrails.Audit.diagnostics)
            machine.Guardrails.Machine.states machine.Guardrails.Machine.transitions
            (if machine.Guardrails.Machine.truncated then
               " (truncated: GRL201/202 suppressed, raise --max-states)"
             else "")
        in
        print_diagnostics ~json ~strict ~file_of ~footer audit.Guardrails.Audit.diagnostics)
  in
  let files =
    Arg.(
      non_empty & pos_all string []
      & info [] ~docv:"FILE"
          ~doc:
            "Guardrail source file(s); verified together as one deployment. $(b,-) reads a \
             spec from standard input — pipe the exact bytes you are about to $(b,grc push) \
             through the same static pass the daemon's admission controller runs.")
  in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit diagnostics as a JSON array.") in
  let strict =
    Arg.(
      value & flag
      & info [ "strict" ] ~doc:"Exit 1 when warnings are found (errors always exit 2).")
  in
  let budget =
    Arg.(
      value & opt float 500.
      & info [ "hook-budget-ns" ] ~docv:"NS"
          ~doc:"Per-FUNCTION-hook cumulative static cost budget in nanoseconds (default 500).")
  in
  let fleet =
    Arg.(
      value & flag
      & info [ "fleet" ]
          ~doc:
            "Treat each FILE as one fleet node's deployment: node-local keys and monitor \
             names are qualified per file, interference checks only fire for genuinely \
             shared state, and the GRL301 GLOBAL-key race analysis runs across nodes.")
  in
  let max_states =
    Arg.(
      value & opt int 4096
      & info [ "max-states" ] ~docv:"N"
          ~doc:
            "Action-machine exploration cap (default 4096). When hit, GRL201/GRL202 \
             absence proofs are suppressed; GRL203 cycles found so far still report.")
  in
  let canary =
    Arg.(
      value & opt_all string []
      & info [ "canary" ] ~docv:"POLICY=ID[,ID...]"
          ~doc:
            "Model POLICY's REPLACE as canaried onto the given node subset; repeatable. \
             Enables the GRL202 never-promoting-canary check for that policy.")
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Whole-deployment verification: inter-rule fixpoint dataflow, action-machine \
          model checking with executable counterexamples, and fleet race analysis")
    Term.(const run $ files $ json $ strict $ budget $ fleet $ max_states $ canary)

let cgen_cmd =
  let run path header =
    if header then begin
      print_string Guardrails.Cgen.runtime_header;
      0
    end
    else
      with_spec path (fun spec ->
          let monitors = List.map Guardrails.Opt.optimize_monitor (Guardrails.Lower.spec spec) in
          let bad =
            List.filter_map
              (fun m ->
                match Guardrails.Verify.verify m with
                | Ok _ -> None
                | Error errs -> Some (m.Guardrails.Monitor.name, errs))
              monitors
          in
          match bad with
          | (name, errs) :: _ ->
            Format.eprintf "monitor %s rejected by the verifier:@." name;
            List.iter (fun e -> Format.eprintf "  %s@." e) errs;
            1
          | [] ->
            print_string (Guardrails.Cgen.spec monitors);
            0)
  in
  let header =
    Arg.(value & flag & info [ "header" ] ~doc:"Print guardrail_rt.h instead of monitor code.")
  in
  Cmd.v
    (Cmd.info "cgen" ~doc:"Emit the C translation of verified monitors (kernel-module target)")
    Term.(const run $ file_arg $ header)

let fmt_cmd =
  let run path =
    with_spec path (fun spec ->
        print_string (Guardrails.Pretty.spec_to_string spec);
        0)
  in
  Cmd.v (Cmd.info "fmt" ~doc:"Pretty-print the canonical form") Term.(const run $ file_arg)

(* Shared --domains contract (docs/PARALLEL.md): an explicit integer
   must be positive (0/negative is a usage error, exit 2), "auto"
   resolves via the runtime's recommendation clamped to the node
   count and says so once at startup. *)
let resolve_domains ~cmd ~nodes = function
  | None -> Ok 1
  | Some "auto" ->
    let recommended = Domain.recommended_domain_count () in
    let domains = max 1 (min recommended nodes) in
    Printf.printf
      "%s: --domains auto -> %d (Domain.recommended_domain_count () = %d, clamped to %d \
       node(s))\n\
       %!"
      cmd domains recommended nodes;
    Ok domains
  | Some s -> (
    match int_of_string_opt s with
    | Some d when d > 0 -> Ok d
    | Some _ -> Error (Printf.sprintf "%s: --domains must be positive (got %s)" cmd s)
    | None -> Error (Printf.sprintf "%s: --domains expects a positive integer or 'auto'" cmd))

(* Shared --engine contract: selects the monitor execution tier
   (docs/PERFORMANCE.md). Anything but the two tier names is a
   usage error — one line on stderr, exit 2. *)
let resolve_engine ~cmd = function
  | None -> Ok None
  | Some s -> (
    match Guardrails.Vm.tier_of_string s with
    | Some t -> Ok (Some t)
    | None -> Error (Printf.sprintf "%s: --engine expects tree or jit (got %s)" cmd s))

let engine_arg ~cmd =
  Cmdliner.Arg.(
    value
    & opt (some string) None
    & info [ "engine" ] ~docv:"tree|jit"
        ~doc:
          (Printf.sprintf
             "Monitor execution tier for $(b,%s) (default jit): $(b,tree) is the reference \
              tree-walking interpreter, $(b,jit) the closure template JIT, which runs every \
              monitor, cross-shard fleet reads included. Both tiers are bit-identical in \
              verdicts, cost accounting, store effects and traces — proven by the cross-tier \
              differential fuzzer — so this is a pure performance knob."
             cmd))

let domains_arg ~cmd =
  Cmdliner.Arg.(
    value
    & opt (some string) None
    & info [ "domains" ] ~docv:"K|auto"
        ~doc:
          (Printf.sprintf
             "OCaml domains for fleet execution (default 1). $(b,%s) runs the node kernels \
              under the deterministic epoch-barrier protocol (see docs/PARALLEL.md), spread \
              over K domains; 1 runs them inline on the main domain. The same spec, seed and \
              --nodes give byte-identical traces and output for every K; only wall-clock \
              changes. $(b,auto) resolves to the runtime's recommended domain count. Clamped \
              to the node count."
             cmd))

let run_cmd =
  (* Post-run telemetry plumbing shared by the single-node and fleet
     paths: the OpenMetrics exposition, the dropped-report warning
     and the --strict-drops exit-code contract. *)
  let finish ~tracers ~metrics_out ~strict_drops ok_code =
    (match metrics_out with
    | Some out ->
      Guardrails.Trace_export.write_openmetrics ~path:out tracers;
      Format.printf "OpenMetrics telemetry written to %s@." out
    | None -> ());
    let dropped_reports =
      List.fold_left
        (fun acc tr -> acc + Guardrails.Trace_sink.dropped (Guardrails.Trace.reports tr))
        0 tracers
    in
    if dropped_reports > 0 then
      Printf.eprintf
        "grc run: warning: %d report event(s) dropped by the bounded report sink; raise its \
         capacity or drain it more often\n"
        dropped_reports;
    if strict_drops && dropped_reports > 0 then 1 else ok_code
  in
  let run path until seed trace_out nodes metrics_out strict_drops domains engine_str =
    if nodes < 1 then begin
      prerr_endline "grc run: --nodes must be positive";
      2
    end
    else begin
      match resolve_engine ~cmd:"grc run" engine_str with
      | Error msg ->
        prerr_endline msg;
        2
      | Ok engine -> (
      match resolve_domains ~cmd:"grc run" ~nodes domains with
      | Error msg ->
        prerr_endline msg;
        2
      | Ok domains ->
      let domains = max 1 (min domains nodes) in
      match load_spec ~usage:true path with
      | Error msg ->
        prerr_endline msg;
        2
      | Ok (_, src, _) when nodes = 1 -> (
        let kernel = Guardrails.Kernel.create ~seed in
        let d =
          Guardrails.Deployment.create ~kernel ~tracing:(Option.is_some trace_out) ?engine ()
        in
        match Guardrails.Deployment.install_source d src with
        | Error e ->
          Format.eprintf "%s: %a@." path Guardrails.Deployment.pp_error e;
          1
        | Ok handles ->
        Format.printf "%s: installed %d monitor(s), running %gs of idle simulated kernel@."
          path (List.length handles) until;
        Guardrails.Kernel.run_until kernel (Guardrails.Util.Time_ns.of_float_sec until);
        Format.printf "%a@." Guardrails.Engine.pp_report (Guardrails.Deployment.engine d);
        Format.printf "%a" Guardrails.Trace_export.pp_summary (Guardrails.Deployment.tracer d);
        (match trace_out with
        | Some out ->
          Guardrails.Deployment.write_chrome_trace d ~path:out;
          Format.printf "Chrome trace written to %s (open at chrome://tracing)@." out
        | None -> ());
        finish
          ~tracers:[ Guardrails.Deployment.tracer d ]
          ~metrics_out ~strict_drops 0)
      | Ok (_, src, _) -> (
        let fleet =
          Guardrails.Fleet.create ~nodes ~seed ~tracing:(Option.is_some trace_out) ~domains
            ?engine ()
        in
        match Guardrails.Fleet.install_source fleet src with
        | Error e ->
          Format.eprintf "%s: %a@." path Guardrails.Deployment.pp_error e;
          1
        | Ok handles ->
          Format.printf
            "%s: installed %d monitor(s) fleet-wide over %d idle node(s), running %gs@." path
            (List.length handles) nodes until;
          Guardrails.Fleet.run_until fleet (Guardrails.Util.Time_ns.of_float_sec until);
          Format.printf "%a@." Guardrails.Engine.pp_report (Guardrails.Fleet.engine fleet);
          Format.printf "%a" Guardrails.Trace_export.pp_summary (Guardrails.Fleet.tracer fleet);
          (match trace_out with
          | Some out ->
            Guardrails.Deployment.write_chrome_trace (Guardrails.Fleet.control fleet)
              ~path:out;
            Format.printf "Chrome trace written to %s (open at chrome://tracing)@." out
          | None -> ());
          finish ~tracers:(Guardrails.Fleet.tracers fleet) ~metrics_out ~strict_drops 0))
    end
  in
  let until =
    Arg.(
      value & opt float 5.
      & info [ "until" ] ~docv:"SECONDS" ~doc:"Simulated seconds to run (default 5).")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Kernel PRNG seed.") in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"OUT.json" ~doc:"Write a Chrome trace_event file.")
  in
  let nodes =
    Arg.(
      value & opt int 1
      & info [ "nodes" ] ~docv:"N"
          ~doc:
            "Number of fleet nodes (default 1). With N > 1 the monitors install fleet-wide: \
             plain keys aggregate the merged view of every node's shard, GLOBAL(key) resolves \
             to the shared tier, and REPLACE/RETRAIN act through the fleet proxies.")
  in
  let path_arg =
    Arg.(
      required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"Guardrail source file.")
  in
  let metrics_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"OUT.prom"
          ~doc:
            "Write the post-run telemetry as an OpenMetrics/Prometheus text exposition: \
             per-monitor counters and latency summaries (per-node labels and fleet rollups \
             under --nodes) and trace-channel accounting. The exposition is the same for \
             every --domains.")
  in
  let strict_drops =
    Arg.(
      value & flag
      & info [ "strict-drops" ]
          ~doc:
            "Exit 1 when any report event was dropped by the bounded report sink (a warning \
             is printed on stderr either way).")
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Install monitors against an idle simulated kernel (or fleet of kernels), drive \
          their TIMER triggers, and report per-monitor telemetry")
    Term.(
      const run $ path_arg $ until $ seed $ trace_out $ nodes $ metrics_out $ strict_drops
      $ domains_arg ~cmd:"grc run"
      $ engine_arg ~cmd:"grc run")

(* grc explain: offline decision forensics over a Chrome trace file
   written by `grc run --trace` (or any deployment export). Selects a
   decision — a REPORT by index, actions by name, or everything a
   monitor did — and prints the full causal chain: the sim dispatch
   that rooted it, the hook/check path, the rule disassembly, the
   sibling actions the same decision fired, and the store writes
   (recursively) that produced the values the rule read. *)
let explain_cmd =
  let module P = Guardrails.Provenance in
  let run path report_n action_name monitor_name json depth =
    match P.load path with
    | Error e ->
      Printf.eprintf "grc explain: %s: %s\n" path e;
      2
    | Ok prov -> (
      (match P.orphans prov with
      | [] -> ()
      | orphans ->
        Printf.eprintf
          "grc explain: warning: %d event(s) reference a parent span missing from the trace \
           (bounded sink overflow?); chains through them are truncated\n"
          (List.length orphans));
      let named kind = function
        | [] ->
          Printf.eprintf "grc explain: no %s found in %s\n" kind path;
          None
        | l -> Some l
      in
      let targets =
        match (report_n, action_name, monitor_name) with
        | Some n, None, None -> (
          let reports = P.reports prov in
          match List.nth_opt reports n with
          | Some r -> Some [ r ]
          | None ->
            Printf.eprintf "grc explain: --report %d out of range (%d report(s) in %s)\n" n
              (List.length reports) path;
            None)
        | None, Some name, None -> named (Printf.sprintf "%S actions" name) (P.actions ~name prov)
        | None, None, Some name ->
          named (Printf.sprintf "decisions by monitor %S" name) (P.monitor_decisions prov name)
        | None, None, None -> named "reports" (P.reports prov)
        | _ ->
          prerr_endline "grc explain: --report, --action and --monitor are mutually exclusive";
          None
      in
      match targets with
      | None -> 2
      | Some targets ->
        let explanations = List.map (P.explain ~max_depth:depth prov) targets in
        if json then
          print_endline
            (Guardrails.Json.to_string
               (Guardrails.Json.Arr (List.map P.explanation_to_json explanations)))
        else
          List.iteri
            (fun i e ->
              if i > 0 then print_newline ();
              Format.printf "%a@." P.pp_explanation e)
            explanations;
        0)
  in
  let trace_arg =
    Arg.(
      required & pos 0 (some string) None
      & info [] ~docv:"TRACE.json" ~doc:"Chrome trace_event file written by grc run --trace.")
  in
  let report_n =
    Arg.(
      value
      & opt (some int) None
      & info [ "report" ] ~docv:"N" ~doc:"Explain the N-th REPORT event (0-based).")
  in
  let action_name =
    Arg.(
      value
      & opt (some string) None
      & info [ "action" ] ~docv:"NAME"
          ~doc:"Explain every NAME action (REPLACE, RESTORE, SAVE, RETRAIN.scheduled, ...).")
  in
  let monitor_name =
    Arg.(
      value
      & opt (some string) None
      & info [ "monitor" ] ~docv:"NAME" ~doc:"Explain every decision made by monitor NAME.")
  in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit explanations as a JSON array.") in
  let depth =
    Arg.(
      value & opt int 4
      & info [ "depth" ] ~docv:"D"
          ~doc:"How many store-write hops to unwind when tracing input data flow (default 4).")
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Reconstruct the causal chain behind guardrail decisions from a trace: dispatch -> \
          hook -> check -> actions, with rule disassembly and recursive input provenance")
    Term.(const run $ trace_arg $ report_n $ action_name $ monitor_name $ json $ depth)

(* ---- grc serve: the spec lifecycle as a live control plane ----

   A long-running daemon owning a deployment (or a fleet), ingesting
   the simulated workload continuously, and accepting versioned spec
   pushes over a unix-domain socket. One JSON request per connection:
   the client sends a single object and shuts down its write side,
   the server replies with one object and closes.

   The session itself — request dispatch, replies, admission, canary,
   verdict, promotion and rollback — is Guardrails.Serve over
   Guardrails.Lifecycle; serve here is only the transport. With --hold
   the sim advances ONLY on advance commands, so a scripted session is
   fully deterministic (the serve-smoke golden audit log relies on
   this); without it the daemon free-runs to --until, polling the
   socket between epochs, then keeps serving until quit. *)

let write_fd_all fd s =
  let len = String.length s in
  let rec go off =
    if off < len then go (off + Unix.write_substring fd s off (len - off))
  in
  go 0

(* Reads until EOF, or until more than [limit] bytes are in. With a
   [deadline] (absolute Unix time) each read waits only until then
   (SO_RCVTIMEO; at least 1ms, since 0 means no timeout) and none
   starts after it: a client that stays silent fails the read with
   EAGAIN or ETIMEDOUT. *)
let read_fd_all ?(limit = max_int) ?deadline fd =
  let buf = Buffer.create 1024 in
  let chunk = Bytes.create 4096 in
  let rec go () =
    if Buffer.length buf > limit then Buffer.contents buf
    else begin
      Option.iter
        (fun deadline ->
          let left = deadline -. Unix.gettimeofday () in
          if left <= 0. then raise (Unix.Unix_error (Unix.ETIMEDOUT, "read", ""));
          Unix.setsockopt_float fd Unix.SO_RCVTIMEO (Float.max left 1e-3))
        deadline;
      match Unix.read fd chunk 0 (Bytes.length chunk) with
      | 0 -> Buffer.contents buf
      | n ->
        Buffer.add_subbytes buf chunk 0 n;
        go ()
    end
  in
  go ()

(* How long the daemon waits for a connected client's whole request.
   It serves one connection at a time, so this bounds how long a
   silent client can hold up everyone else. *)
let request_deadline_s = 1.0

let socket_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket the daemon listens on.")

let serve_cmd =
  let module L = Guardrails.Lifecycle in
  let module Time_ns = Guardrails.Util.Time_ns in
  let run path socket_path until seed nodes domains_str engine_str hold audit_path trace_out
      metrics_out canary_nodes canary_barriers max_fire_rate who =
    if nodes < 1 then begin
      prerr_endline "grc serve: --nodes must be positive";
      2
    end
    else begin
      match resolve_engine ~cmd:"grc serve" engine_str with
      | Error msg ->
        prerr_endline msg;
        2
      | Ok engine -> (
        match resolve_domains ~cmd:"grc serve" ~nodes domains_str with
        | Error msg ->
          prerr_endline msg;
          2
        | Ok domains -> (
          let domains = max 1 (min domains nodes) in
          match load_spec ~usage:true path with
          | Error msg ->
            prerr_endline msg;
            2
          | Ok (_, src, _) -> (
            let tracing = Option.is_some trace_out in
            let target =
              if nodes = 1 then
                L.Deployment
                  (Guardrails.Deployment.create ~kernel:(Guardrails.Kernel.create ~seed) ~tracing
                     ?engine ())
              else L.Fleet (Guardrails.Fleet.create ~nodes ~seed ~tracing ~domains ?engine ())
            in
            let audit_log =
              Option.map (fun p -> Guardrails.Audit_log.create ~path:p) audit_path
            in
            let audit =
              match audit_log with
              | Some log -> fun e -> Guardrails.Audit_log.append log e
              | None -> fun _ -> ()
            in
            let config =
              { L.default_config with canary_nodes; canary_barriers; max_fire_rate }
            in
            let lc = L.create ~config ~audit target in
            match L.boot lc ~who src with
            | Error e ->
              Format.eprintf "%s: %a@." path Guardrails.Deployment.pp_error e;
              Option.iter Guardrails.Audit_log.close audit_log;
              1
            | Ok handles ->
              let session = Guardrails.Serve.create lc in
              (* A client that hangs up mid-exchange, or stays silent
                 past the deadline, loses only its own connection: the
                 failed read or write drops it and the daemon keeps
                 serving. *)
              let handle_conn fd =
                Fun.protect
                  ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
                  (fun () ->
                    let deadline = Unix.gettimeofday () +. request_deadline_s in
                    match
                      read_fd_all ~limit:Guardrails.Serve.max_request_bytes ~deadline fd
                    with
                    | exception Unix.Unix_error _ -> ()
                    | raw -> (
                      try write_fd_all fd (Guardrails.Serve.handle session raw)
                      with Unix.Unix_error _ -> ()))
              in
              (* Writing to a closed peer must fail with EPIPE, not kill
                 the daemon. *)
              Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
              if Sys.file_exists socket_path then Sys.remove socket_path;
              let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
              Unix.bind sock (Unix.ADDR_UNIX socket_path);
              Unix.listen sock 16;
              Printf.printf "grc serve: %s: installed %d monitor(s) as v1, listening on %s (%s)\n%!"
                path (List.length handles) socket_path
                (if hold then "hold: sim advances on push/advance commands"
                 else Printf.sprintf "free-running %gs then serving until quit" until);
              let stopped () = Guardrails.Serve.stopped session in
              let until_ns = Time_ns.of_float_sec until in
              if not hold then
                while (not (stopped ())) && Time_ns.compare (L.now lc) until_ns < 0 do
                  (match Unix.select [ sock ] [] [] 0. with
                  | [ _ ], _, _ ->
                    let fd, _ = Unix.accept sock in
                    handle_conn fd
                  | _ -> ());
                  L.advance lc ~epochs:1
                done;
              while not (stopped ()) do
                let fd, _ = Unix.accept sock in
                handle_conn fd
              done;
              (try Unix.close sock with Unix.Unix_error _ -> ());
              if Sys.file_exists socket_path then Sys.remove socket_path;
              let control = L.control lc in
              Format.printf "%a@." Guardrails.Engine.pp_report (L.engine lc);
              Format.printf "%a" Guardrails.Trace_export.pp_summary
                (Guardrails.Deployment.tracer control);
              Format.printf "%a@." L.pp_status lc;
              (match trace_out with
              | Some out ->
                Guardrails.Deployment.write_chrome_trace control ~path:out;
                Format.printf "Chrome trace written to %s (open at chrome://tracing)@." out
              | None -> ());
              (match audit_log with
              | Some log ->
                Guardrails.Audit_log.close log;
                Format.printf "audit log: %d decision event(s) in %s@."
                  (Guardrails.Audit_log.appended log)
                  (Guardrails.Audit_log.path log)
              | None -> ());
              (match metrics_out with
              | Some out ->
                Guardrails.Trace_export.write_openmetrics ~path:out (L.tracers lc);
                Format.printf "OpenMetrics telemetry written to %s@." out
              | None -> ());
              0)))
    end
  in
  let until =
    Arg.(
      value & opt float 5.
      & info [ "until" ] ~docv:"SECONDS"
          ~doc:
            "Simulated seconds to free-run before settling into request-driven serving \
             (default 5); ignored under --hold.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Kernel PRNG seed.") in
  let nodes =
    Arg.(
      value & opt int 1
      & info [ "nodes" ] ~docv:"N"
          ~doc:
            "Fleet size (default 1). With N > 1, admitted pushes canary onto a node subset \
             before fleet-wide promotion; with N = 1 the canary window still gates \
             promotion, judged on the whole deployment.")
  in
  let hold =
    Arg.(
      value & flag
      & info [ "hold" ]
          ~doc:
            "Deterministic mode: simulated time advances only on $(b,advance) commands \
             (and never free-runs). Scripted sessions — e.g. the serve-smoke golden — \
             produce identical audit logs and traces on every host.")
  in
  let audit_path =
    Arg.(
      value
      & opt (some string) None
      & info [ "audit-log" ] ~docv:"OUT.jsonl"
          ~doc:
            "Append every control-plane decision (push, admit/reject, canary, verdict, \
             promote, rollback) as one JSON trace event per line; $(b,grc explain) walks \
             the same file.")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"OUT.json" ~doc:"Write a Chrome trace_event file on exit.")
  in
  let metrics_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"OUT.prom"
          ~doc:"Write the final telemetry as an OpenMetrics text exposition on exit.")
  in
  let canary_nodes =
    Arg.(
      value & opt int 1
      & info [ "canary-nodes" ] ~docv:"N"
          ~doc:"Nodes an admitted push canaries onto (default 1; clamped below --nodes).")
  in
  let canary_barriers =
    Arg.(
      value & opt int 3
      & info [ "canary-barriers" ] ~docv:"N"
          ~doc:"Consecutive clean epoch-barrier verdicts required to promote (default 3).")
  in
  let max_fire_rate =
    Arg.(
      value & opt float 5.
      & info [ "max-fire-rate" ] ~docv:"PER_SEC"
          ~doc:
            "Rollback guardrail: a canary firing actions faster than this (per simulated \
             second) is rolled back at the next barrier (default 5). Oscillation alerts \
             on the canary always roll back.")
  in
  let who =
    Arg.(
      value & opt string "operator"
      & info [ "who" ] ~docv:"NAME" ~doc:"Identity recorded for the boot spec (default operator).")
  in
  let path_arg =
    Arg.(
      required & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"Boot guardrail spec, installed directly as version 1.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the spec lifecycle as a live control plane: a daemon owning a deployment or \
          fleet, admitting versioned spec pushes over a unix socket through static \
          analysis, canarying them onto a node subset, and auto-promoting or rolling back \
          on epoch-barrier guardrail verdicts — every decision audit-logged")
    Term.(
      const run $ path_arg $ socket_arg $ until $ seed $ nodes
      $ domains_arg ~cmd:"grc serve"
      $ engine_arg ~cmd:"grc serve"
      $ hold $ audit_path $ trace_out $ metrics_out $ canary_nodes $ canary_barriers
      $ max_fire_rate $ who)

(* grc push: the client side of the serve socket. Also carries the
   ctl verbs (advance/status/quit) so a scripted rollout session is
   entirely push invocations. *)
let push_cmd =
  let module J = Guardrails.Json in
  let run socket_path spec_path who advance status quit json_out =
    let request req =
      match Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 with
      | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
      | fd ->
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () ->
            match Unix.connect fd (Unix.ADDR_UNIX socket_path) with
            | exception Unix.Unix_error (e, _, _) ->
              Error (Printf.sprintf "%s: %s" socket_path (Unix.error_message e))
            | () ->
              write_fd_all fd (J.to_string req);
              Unix.shutdown fd Unix.SHUTDOWN_SEND;
              Ok (read_fd_all fd))
    in
    let req_r =
      if quit then Ok (J.Obj [ ("cmd", J.Str "quit") ])
      else if status then Ok (J.Obj [ ("cmd", J.Str "status") ])
      else
        match advance with
        | Some n when n >= 0 ->
          Ok (J.Obj [ ("cmd", J.Str "advance"); ("epochs", J.Num (float_of_int n)) ])
        | Some _ -> Error "grc push: --advance must be non-negative"
        | None -> (
          match spec_path with
          | None ->
            Error "grc push: pass a SPEC file (or -), or one of --advance/--status/--quit"
          | Some path -> (
            match read_spec_input path with
            | exception Sys_error e -> Error (Printf.sprintf "grc push: %s" e)
            | _, src ->
              Ok
                (J.Obj
                   [ ("cmd", J.Str "push"); ("who", J.Str who); ("spec", J.Str src) ])))
    in
    match req_r with
    | Error msg ->
      prerr_endline msg;
      2
    | Ok req -> (
      match request req with
      | Error msg ->
        Printf.eprintf "grc push: %s\n" msg;
        2
      | Ok raw -> (
        match J.parse (String.trim raw) with
        | Error e ->
          Printf.eprintf "grc push: bad response: %s\n" e;
          2
        | Ok resp ->
          if json_out then print_endline (J.to_string resp)
          else begin
            (match (J.member "decision" resp, J.member "version" resp) with
            | Some (J.Str d), Some (J.Num v) ->
              Printf.printf "v%d %s\n" (int_of_float v) d
            | _ -> ());
            (match J.member "reason" resp with
            | Some (J.Str r) -> Printf.printf "reason: %s\n" r
            | _ -> ());
            (match J.member "diagnostics" resp with
            | Some (J.Arr diags) ->
              List.iter
                (fun d ->
                  match
                    (J.member "severity" d, J.member "code" d, J.member "message" d)
                  with
                  | Some (J.Str sev), Some (J.Str code), Some (J.Str msg) ->
                    Printf.printf "  %s %s: %s\n" sev code msg
                  | _ -> ())
                diags
            | _ -> ());
            (match J.member "phase" resp with
            | Some (J.Str p) -> Printf.printf "phase: %s\n" p
            | _ -> ());
            (match J.member "error" resp with
            | Some (J.Str e) -> Printf.printf "error: %s\n" e
            | _ -> ())
          end;
          (* Exit code mirrors the daemon's decision: 0 admitted /
             acknowledged, 1 rejected, 2 transport or usage error. *)
          (match J.member "ok" resp with
          | Some (J.Bool true) -> 0
          | _ -> 1)))
  in
  let spec =
    Arg.(
      value & pos 0 (some string) None
      & info [] ~docv:"SPEC"
          ~doc:"Guardrail spec to push ($(b,-) reads standard input).")
  in
  let who =
    Arg.(
      value & opt string "anonymous"
      & info [ "who" ] ~docv:"NAME" ~doc:"Identity recorded in the audit log for this push.")
  in
  let advance =
    Arg.(
      value
      & opt (some int) None
      & info [ "advance" ] ~docv:"N"
          ~doc:"Instead of pushing, drive N epoch barriers (the rollout decision points).")
  in
  let status =
    Arg.(value & flag & info [ "status" ] ~doc:"Instead of pushing, print the lifecycle snapshot.")
  in
  let quit =
    Arg.(value & flag & info [ "quit" ] ~doc:"Instead of pushing, shut the daemon down.")
  in
  let json_out =
    Arg.(value & flag & info [ "json" ] ~doc:"Print the daemon's raw JSON response.")
  in
  Cmd.v
    (Cmd.info "push"
       ~doc:
         "Push a versioned spec to a running grc serve daemon (or drive/inspect it with \
          --advance, --status, --quit)")
    Term.(const run $ socket_arg $ spec $ who $ advance $ status $ quit $ json_out)

let soak_cmd =
  let module Soak = Gr_fault.Soak in
  let module Fault = Gr_fault.Fault in
  let run scenario seed runs duration plan_str spec_path dump_trace smoke nodes domains_str
      engine_str =
    let fail2 msg =
      prerr_endline ("grc soak: " ^ msg);
      2
    in
    let domains_r = resolve_domains ~cmd:"grc soak" ~nodes domains_str in
    let engine_r = resolve_engine ~cmd:"grc soak" engine_str in
    let scenarios_r =
      if scenario = "all" then Ok Soak.scenario_names
      else if List.mem scenario Soak.scenario_names then Ok [ scenario ]
      else
        Error
          (Printf.sprintf "unknown scenario %S (expected %s or all)" scenario
             (String.concat "|" Soak.scenario_names))
    in
    let plan_r =
      match plan_str with
      | None -> Ok None
      | Some s -> (
        match Fault.plan_of_string s with
        | Ok p -> Ok (Some p)
        | Error e -> Error ("bad --plan: " ^ e))
    in
    let spec_r =
      match spec_path with
      | None -> Ok None
      | Some path -> (
        match load_spec ~usage:true path with
        | Ok (_, src, _) -> Ok (Some (path, src))
        | Error msg -> Error msg)
    in
    match (scenarios_r, plan_r, spec_r, domains_r, engine_r) with
    | Error e, _, _, _, _ | _, Error e, _, _, _ -> fail2 e
    | _, _, Error msg, _, _ | _, _, _, Error msg, _ | _, _, _, _, Error msg ->
      (* load_spec / resolve_domains / resolve_engine already
         carry the prefix. *)
      prerr_endline msg;
      2
    | Ok scenarios, Ok plan, Ok extra_spec, Ok domains, Ok engine -> (
      let duration_ns = Guardrails.Util.Time_ns.of_float_sec duration in
      match plan with
      | Some plan -> (
        match scenarios with
        | [ scenario ] ->
          let r =
            Soak.run_one ?extra_source:(Option.map snd extra_spec) ~nodes ~domains ?engine
              ~scenario ~seed
              ~duration:duration_ns ~plan ()
          in
          if dump_trace then
            List.iter (fun e -> Format.printf "%a@." Guardrails.Trace_event.pp e) r.Soak.trace;
          Format.printf
            "%s seed=%d: %d events, %d faults injected (%d skipped), %d checks, %d \
             violations@."
            scenario seed r.Soak.events r.Soak.faults_injected r.Soak.faults_skipped
            r.Soak.checks r.Soak.violations;
          List.iter
            (fun (name, on_fallback, flips) ->
              Format.printf "slot %s: %s (%d transition(s))@." name
                (if on_fallback then "fallback" else "learned")
                flips)
            r.Soak.slots;
          if r.Soak.ok then begin
            print_endline "OK";
            0
          end
          else begin
            List.iter (fun p -> print_endline ("PROBLEM: " ^ p)) r.Soak.problems;
            1
          end
        | _ -> fail2 "--plan replays one run; pass a single --scenario with it")
      | None ->
        let scenarios, seeds, duration_ns =
          if smoke then
            (* Bounded CI preset: 21 seeded runs, well under a minute. *)
            ( Soak.scenario_names,
              List.init 7 (fun i -> i + 1),
              Guardrails.Util.Time_ns.of_float_sec 0.5 )
          else (scenarios, List.init runs (fun i -> seed + i), duration_ns)
        in
        let report =
          Soak.soak ~log:print_endline ?extra_spec ~nodes ~domains ?engine ~scenarios ~seeds
            ~duration:duration_ns ()
        in
        Format.printf "%a" Soak.pp_report report;
        if report.Soak.failures = [] then 0 else 1)
  in
  let scenario =
    Arg.(
      value & opt string "all"
      & info [ "scenario" ] ~docv:"NAME"
          ~doc:"Scenario template: blk, sched, store, fleet, serve, or all (default).")
  in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"First seed (default 1).")
  in
  let runs =
    Arg.(
      value & opt int 5
      & info [ "runs" ] ~docv:"N" ~doc:"Seeds per scenario, starting at --seed (default 5).")
  in
  let duration =
    Arg.(
      value & opt float 2.
      & info [ "duration" ] ~docv:"SECONDS" ~doc:"Simulated seconds per run (default 2).")
  in
  let plan =
    Arg.(
      value
      & opt (some string) None
      & info [ "plan" ] ~docv:"PLAN"
          ~doc:
            "Replay this exact fault plan (the format a failing run prints) instead of \
             generating one; runs a single (scenario, seed) pair.")
  in
  let spec =
    Arg.(
      value
      & opt (some string) None
      & info [ "spec" ] ~docv:"FILE"
          ~doc:"Install these guardrails into every scenario, next to the built-in ones.")
  in
  let dump_trace =
    Arg.(
      value & flag
      & info [ "dump-trace" ]
          ~doc:"With --plan: print the full trace event stream (determinism debugging).")
  in
  let smoke =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:"CI preset: every scenario, seeds 1-7, 0.5 simulated seconds per run.")
  in
  let nodes =
    Arg.(
      value & opt int 3
      & info [ "nodes" ] ~docv:"N"
          ~doc:
            "Fleet size for the fleet and serve scenarios (default 3); other scenarios \
             ignore it.")
  in
  Cmd.v
    (Cmd.info "soak"
       ~doc:
         "Chaos soak: run fault-injection scenarios under global invariants; failures shrink \
          to a minimal reproducible (seed, plan) command line")
    Term.(
      const run $ scenario $ seed $ runs $ duration $ plan $ spec $ dump_trace $ smoke $ nodes
      $ domains_arg ~cmd:"grc soak"
      $ engine_arg ~cmd:"grc soak")

let () =
  let info = Cmd.info "grc" ~version:"1.0.0" ~doc:"Guardrail compiler for learned OS policies" in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            check_cmd;
            compile_cmd;
            deps_cmd;
            lint_cmd;
            verify_cmd;
            cgen_cmd;
            fmt_cmd;
            run_cmd;
            explain_cmd;
            serve_cmd;
            push_cmd;
            soak_cmd;
          ]))
