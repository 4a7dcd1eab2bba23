module Ast = Gr_dsl.Ast
module Ir = Gr_compiler.Ir
module Monitor = Gr_compiler.Monitor

type config = { hook_budget_ns : float }

let default_config = { hook_budget_ns = 500. }

(* ---------- Pass 1: per-program diagnostics ---------- *)

(* The straight-line abstract evaluator and the whole-deployment SAVE
   fixpoint both live in {!Dataflow}; keys written by some monitor's
   SAVE carry the fixpoint value range, everything else is external
   telemetry — finite but unknown. *)

let is_comparison = function
  | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.Eq | Ast.Ne -> true
  | _ -> false

let check_program ~diag ~monitor ~lookup ~is_rule (m : Monitor.t) (p : Ir.program) =
  let slots = m.Monitor.slots in
  let regs = Dataflow.eval_program ~lookup ~slots p in
  Array.iteri
    (fun i inst ->
      let pos = Ir.pos_of p i in
      match inst with
      | Ir.Binop { op = Ast.Div; rhs; dst; _ } ->
        let dv = regs.(rhs) in
        if Interval.must_zero dv then
          diag
            (Diagnostic.error ~monitor ?pos ~code:"GRL003"
               "divisor is always 0; the VM defines x / 0 = 0, so this quotient is constantly 0")
        else if Interval.may_zero dv && not (Interval.is_unconstrained dv) then
          diag
            (Diagnostic.warning ~monitor ?pos ~code:"GRL003"
               (Printf.sprintf
                  "divisor may be 0 (divisor in %s); the VM silently yields 0 for x / 0"
                  (Interval.to_string dv)));
        ignore dst
      | Ir.Binop { op; lhs; rhs; dst } when is_comparison op ->
        let lv = regs.(lhs) and rv = regs.(rhs) in
        if Interval.may_nan lv || Interval.may_nan rv then
          diag
            (Diagnostic.warning ~monitor ?pos ~code:"GRL005"
               (Printf.sprintf
                  "%s operand of %s may be NaN; NaN makes every comparison false (except <>)"
                  (if Interval.may_nan lv then "left" else "right")
                  (Ast.binop_symbol op)))
        else begin
          let v = regs.(dst) in
          let constant =
            if Interval.always_true v then Some "true"
            else if Interval.always_false v then Some "false"
            else None
          in
          match constant with
          | Some outcome when (not is_rule) || dst <> p.Ir.result ->
            (* The rule's root comparison is reported as GRL001/002. *)
            diag
              (Diagnostic.warning ~monitor ?pos ~code:"GRL004"
                 (Printf.sprintf "comparison is always %s: left in %s, right in %s" outcome
                    (Interval.to_string lv) (Interval.to_string rv)))
          | _ -> ()
        end
      | _ -> ())
    p.Ir.insts;
  if Array.length p.Ir.insts = 0 then Interval.unknown else regs.(p.Ir.result)

let check_monitor ~diag ~lookup (m : Monitor.t) =
  let monitor = m.Monitor.name in
  let rule_pos =
    match Ir.pos_of m.Monitor.rule m.Monitor.rule.Ir.result with
    | Some p -> Some p
    | None -> Some m.Monitor.pos
  in
  let rv = check_program ~diag ~monitor ~lookup ~is_rule:true m m.Monitor.rule in
  if Interval.always_true rv then
    diag
      (Diagnostic.warning ~monitor ?pos:rule_pos ~code:"GRL001"
         (Printf.sprintf "rule is always true (value in %s): the guardrail can never fire"
            (Interval.to_string rv)))
  else if Interval.always_false rv then
    diag
      (Diagnostic.warning ~monitor ?pos:rule_pos ~code:"GRL002"
         (Printf.sprintf "rule is always false (value in %s): the guardrail fires on every check"
            (Interval.to_string rv)));
  List.iter
    (fun (_, value) ->
      ignore (check_program ~diag ~monitor ~lookup ~is_rule:false m value : Interval.t))
    (Dataflow.saves m)

(* ---------- Pass 2: interference ---------- *)

(* Cyclic components of the SAVE -> ON_CHANGE trigger graph: more than
   one monitor, or a self-loop. *)
let trigger_cycles (monitors : Monitor.t array) =
  let watchers = Hashtbl.create 16 in
  Array.iteri
    (fun i m ->
      List.iter
        (function
          | Monitor.On_change key -> Hashtbl.add watchers key i
          | Monitor.Timer _ | Monitor.Function _ -> ())
        m.Monitor.triggers)
    monitors;
  let succs i =
    List.concat_map (fun (key, _) -> Hashtbl.find_all watchers key) (Dataflow.saves monitors.(i))
    |> List.sort_uniq compare
  in
  List.filter
    (function [ v ] -> List.mem v (succs v) | _ :: _ :: _ -> true | [] -> false)
    (Dataflow.components (Array.length monitors) succs)

let check_deployment ~config ~diag (df : Dataflow.t) =
  let monitors = Array.to_list df.Dataflow.monitors in
  let name i = df.Dataflow.monitors.(i).Monitor.name in
  (* GRL101: duplicate SAVE key within one monitor. *)
  List.iter
    (fun m ->
      let seen = Hashtbl.create 4 in
      List.iter
        (fun (key, _) ->
          if Hashtbl.mem seen key then
            diag
              (Diagnostic.error ~monitor:m.Monitor.name ~pos:m.Monitor.pos ~code:"GRL101"
                 (Printf.sprintf "duplicate SAVE key %S: only the last write survives a check" key))
          else Hashtbl.add seen key ())
        (Dataflow.saves m))
    monitors;
  (* GRL102: write-write conflicts across monitors. *)
  List.sort compare df.Dataflow.keys
  |> List.iter (fun key ->
         let ws =
           List.map (fun (w : Dataflow.writer) -> name w.monitor) (Dataflow.writers df key)
           |> List.sort_uniq compare
         in
         match ws with
         | first :: _ :: _ ->
           diag
             (Diagnostic.warning ~monitor:first ~code:"GRL102"
                (Printf.sprintf "key %S is written by multiple monitors (%s): last writer wins"
                   key (String.concat ", " ws)))
         | _ -> ());
  (* GRL103: SAVE <-> ON_CHANGE trigger cycles, in sorted member
     order so the emission sequence is independent of Tarjan's
     traversal order. *)
  trigger_cycles df.Dataflow.monitors
  |> List.map (fun comp -> List.map name comp |> List.sort compare)
  |> List.sort compare
  |> List.iter (fun names ->
      match names with
      | [ only ] ->
        diag
          (Diagnostic.error ~monitor:only ~code:"GRL103"
             (Printf.sprintf
                "monitor %s re-triggers itself: it SAVEs a key it watches via ON_CHANGE" only))
      | first :: _ ->
        diag
          (Diagnostic.error ~monitor:first ~code:"GRL103"
             (Printf.sprintf
                "SAVE/ON_CHANGE trigger cycle among monitors %s: each SAVE re-triggers the next"
                (String.concat ", " names)))
      | [] -> ());
  (* GRL104: REPLACE/RESTORE flap on a shared policy. *)
  let replacers = Hashtbl.create 4 and restorers = Hashtbl.create 4 in
  List.iter
    (fun m ->
      List.iter
        (function
          | Monitor.Replace p -> Hashtbl.add replacers p m.Monitor.name
          | Monitor.Restore p -> Hashtbl.add restorers p m.Monitor.name
          | _ -> ())
        m.Monitor.actions)
    monitors;
  Hashtbl.fold (fun p _ acc -> p :: acc) replacers []
  |> List.sort_uniq compare
  |> List.iter (fun policy ->
         match Hashtbl.find_all restorers policy |> List.sort_uniq compare with
         | [] -> ()
         | restores ->
           let replaces = Hashtbl.find_all replacers policy |> List.sort_uniq compare in
           diag
             (Diagnostic.warning ~monitor:(List.hd replaces) ~code:"GRL104"
                (Printf.sprintf
                   "policy %S is REPLACEd by %s and RESTOREd by %s: opposing actions can flap"
                   policy (String.concat ", " replaces) (String.concat ", " restores))));
  (* GRL105: per-hook cumulative cost budget. *)
  let hooks = Hashtbl.create 4 in
  List.iter
    (fun m ->
      List.iter
        (function
          | Monitor.Function hook -> Hashtbl.add hooks hook m
          | Monitor.Timer _ | Monitor.On_change _ -> ())
        m.Monitor.triggers)
    monitors;
  Hashtbl.fold (fun h _ acc -> h :: acc) hooks []
  |> List.sort_uniq compare
  |> List.iter (fun hook ->
         let ms = Hashtbl.find_all hooks hook in
         let total = List.fold_left (fun acc m -> acc +. Monitor.static_cost_ns m) 0. ms in
         if total > config.hook_budget_ns then begin
           let names =
             List.map (fun m -> m.Monitor.name) ms |> List.sort_uniq compare
           in
           diag
             (Diagnostic.error ~monitor:(List.hd names) ~code:"GRL105"
                (Printf.sprintf
                   "hook %S: cumulative static cost %.0fns of %d monitor(s) (%s) exceeds the \
                    %.0fns budget"
                   hook total (List.length ms) (String.concat ", " names) config.hook_budget_ns))
         end)

(* ---------- Entry point ---------- *)

let deployment ?(config = default_config) (df : Dataflow.t) =
  let out = ref [] in
  let diag d = out := d :: !out in
  Array.iter (check_monitor ~diag ~lookup:(Dataflow.lookup df)) df.Dataflow.monitors;
  check_deployment ~config ~diag df;
  List.rev !out
