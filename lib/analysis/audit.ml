module Monitor = Gr_compiler.Monitor

type config = {
  lint : Analyze.config;
  machine : Machine.config;
  fleet : bool;
}

let default_config =
  { lint = Analyze.default_config; machine = Machine.default_config; fleet = false }

type t = {
  diagnostics : Diagnostic.t list;
  machine : Machine.result;
  race : Diagnostic.t list;
}

let run ?(config = default_config) ?repro (tagged : (int * Monitor.t) list) =
  let df = Dataflow.fixpoint (List.map snd tagged) in
  let lint = Analyze.deployment ~config:config.lint df in
  let machine = Machine.check ~config:config.machine df in
  (* The model checker subsumes GRL104: where the pattern is a real
     storm it returns a GRL203 proof (with a replayable schedule),
     where the opposing actions can never interleave it stays silent
     — which is the point. The pattern heuristic survives only when
     exploration truncated. *)
  let lint =
    if machine.Machine.truncated then lint
    else List.filter (fun d -> d.Diagnostic.code <> "GRL104") lint
  in
  let machine_diags =
    List.map
      (fun (f : Machine.finding) ->
        match (f.Machine.schedule, repro) with
        | Some s, Some render -> { f.Machine.diag with Diagnostic.repro = Some (render s) }
        | _ -> f.Machine.diag)
      machine.Machine.findings
  in
  let race =
    if config.fleet then Race.check df ~nodes:(Array.of_list (List.map fst tagged)) else []
  in
  { diagnostics = lint @ machine_diags @ race; machine; race }

(* Admission control: the PDP decision for one pushed spec.

   A push is admitted only when it compiles (parse, typecheck, lower,
   optimize, per-monitor verify) AND the full static pass family comes
   back clean under the strict contract of `grc lint --strict` /
   `grc verify --strict`: errors and warnings both reject. The
   serving daemon calls this with exactly the config the CLI builds,
   so a spec that lints clean in a shell pipeline is a spec the
   control plane will admit — one code path, two front doors. *)

type admission = {
  admitted : bool;
  monitors : Monitor.t list;  (** empty when compilation failed *)
  diagnostics : Diagnostic.t list;  (** static findings (admitted or not) *)
  reason : string option;  (** rendered compile error, or a findings summary *)
}

let admit ?(config = default_config) ?repro source =
  match Gr_compiler.Compile.source source with
  | Error e ->
    {
      admitted = false;
      monitors = [];
      diagnostics = [];
      reason = Some (Format.asprintf "%a" Gr_compiler.Compile.pp_error e);
    }
  | Ok monitors ->
    let audit = run ~config ?repro (List.map (fun m -> (0, m)) monitors) in
    let diags = audit.diagnostics in
    let errors =
      List.length (List.filter (fun d -> d.Diagnostic.severity = Diagnostic.Error) diags)
    in
    let warnings = List.length diags - errors in
    if diags = [] then { admitted = true; monitors; diagnostics = []; reason = None }
    else
      {
        admitted = false;
        monitors;
        diagnostics = diags;
        reason =
          Some
            (Printf.sprintf "%d error(s), %d warning(s) from static analysis" errors
               warnings);
      }
