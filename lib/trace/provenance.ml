(* Rebuilding decision trees from flat traces.

   Tracing writes a forest encoded as (span, parent) args on every
   event; this module inverts that encoding. Nothing here touches the
   live tracer — it consumes event lists (from a sink or a parsed
   Chrome file), so it can run offline over traces written by another
   process, which is exactly what [grc explain] does. *)

type node = {
  event : Event.t;
  index : int;
  span : int option;
  parent : int option;
  mutable children : node list;
}

type t = {
  all : node array;
  by_span : (int, node) Hashtbl.t;
  orphaned : node list; (* parent id that resolves to no span; input order *)
}

let arg ev k = List.assoc_opt k ev.Event.args

let arg_int ev k =
  match arg ev k with
  | Some (Event.Int i) -> Some i
  | Some (Event.Float f) when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

let arg_str ev k = match arg ev k with Some (Event.Str s) -> Some s | _ -> None
let arg_float ev k =
  match arg ev k with
  | Some (Event.Float f) -> Some f
  | Some (Event.Int i) -> Some (float_of_int i)
  | _ -> None

let of_events events =
  let all =
    Array.of_list
      (List.mapi
         (fun index event ->
           {
             event;
             index;
             span = arg_int event "span";
             parent = arg_int event "parent";
             children = [];
           })
         events)
  in
  let by_span = Hashtbl.create (Array.length all) in
  Array.iter
    (fun n -> match n.span with Some s -> Hashtbl.replace by_span s n | None -> ())
    all;
  let orphaned = ref [] in
  (* Build children lists in input (= emission) order. *)
  Array.iter
    (fun n ->
      match n.parent with
      | None -> ()
      | Some p -> (
        match Hashtbl.find_opt by_span p with
        | Some parent when parent != n -> parent.children <- n :: parent.children
        | Some _ -> ()
        | None -> orphaned := n :: !orphaned))
    all;
  Array.iter (fun n -> n.children <- List.rev n.children) all;
  { all; by_span; orphaned = List.rev !orphaned }

let of_chrome_string s =
  match Export.events_of_chrome_string s with
  | Ok evs -> Ok (of_events evs)
  | Error e -> Error e

let load path =
  (* Accept both a Chrome trace document (grc run --trace) and the
     serving daemon's JSONL audit log — grc explain walks either. *)
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> Result.map of_events (Export.events_of_any_string s)
  | exception Sys_error e -> Error e

let size t = Array.length t.all
let nodes t = Array.to_list t.all
let orphans t = t.orphaned

let roots t =
  Array.to_list t.all |> List.filter (fun n -> n.parent = None)

let reports t =
  Array.to_list t.all |> List.filter (fun n -> n.event.Event.cat = "report")

let actions ?name t =
  (* "audit" counts as an action category: control-plane decisions
     (spec.push, rollout.promote, ...) are explained with the same
     machinery as data-plane REPLACE/SAVE firings. *)
  Array.to_list t.all
  |> List.filter (fun n ->
         (n.event.Event.cat = "action" || n.event.Event.cat = "audit")
         && match name with None -> true | Some nm -> n.event.Event.name = nm)

let monitor_of n =
  match arg_str n.event "monitor" with
  | Some m -> Some m
  | None -> (
    (* Reports and checks are named after their monitor. *)
    match n.event.Event.cat with
    | "report" | "check" -> Some n.event.Event.name
    | _ -> None)

let monitor_decisions t name =
  Array.to_list t.all
  |> List.filter (fun n ->
         (match n.event.Event.cat with "report" | "action" -> true | _ -> false)
         && monitor_of n = Some name)

let ancestors t n =
  let rec up acc n =
    match n.parent with
    | None -> acc
    | Some p -> (
      match Hashtbl.find_opt t.by_span p with
      | None -> acc
      | Some parent -> up (parent :: acc) parent)
  in
  up [] n

type explanation = {
  target : node;
  chain : node list;
  decision : node option;
  rule : string option;
  effects : node list;
  inputs : input list;
}

and input = {
  key : string;
  value : float option;
  writer : node option;
  via : explanation option;
}

(* The store keys a decision read: REPORT events carry the rule's
   store snapshot as ("key:<k>", Float v) args. *)
let snapshot_keys n =
  List.filter_map
    (fun (k, v) ->
      if String.length k > 4 && String.sub k 0 4 = "key:" then
        let key = String.sub k 4 (String.length k - 4) in
        match v with Event.Float f -> Some (key, Some f) | Event.Int i -> Some (key, Some (float_of_int i)) | _ -> Some (key, None)
      else None)
    n.event.Event.args

(* Latest write of [key] the reader could have observed. [before] is
   a span id, not a file position: span ids are allocated in true
   emission order, whereas the merged Chrome file interleaves the
   report channel after the event channel at equal timestamps, so
   position would attribute a later same-timestamp write to an
   earlier read. *)
let last_write t ~key ~before =
  let name = "store:" ^ key in
  Array.fold_left
    (fun best n ->
      match n.span with
      | Some s
        when s < before && n.event.Event.name = name && n.event.Event.ph = Event.Counter -> (
        match best with
        | Some b when b.span >= Some s -> best
        | _ -> Some n)
      | _ -> best)
    None t.all

(* Aggregate reads that fed a derived write: when a deriver computes
   e.g. AVG(false_submit) and saves the result, the store emits an
   "agg:AVG" instant under the same causal parent just before the
   save counter. Those siblings are the data-flow edge from the
   derived key back to its source keys. *)
let agg_sources t write =
  match write.parent with
  | None -> []
  | Some p -> (
    match Hashtbl.find_opt t.by_span p with
    | None -> []
    | Some parent ->
      parent.children
      |> List.filter (fun c ->
             c.index < write.index
             && String.length c.event.Event.name > 4
             && String.sub c.event.Event.name 0 4 = "agg:")
      |> List.filter_map (fun c -> arg_str c.event "key"))

let rec explain_write t ~max_depth ~visited write =
  let chain = ancestors t write @ [ write ] in
  let keys = if max_depth <= 0 then [] else agg_sources t write in
  let inputs =
    List.filter_map
      (fun key ->
        if List.mem key visited then None
        else
          let writer =
            match write.span with
            | None -> None
            | Some before -> last_write t ~key ~before
          in
          let via =
            match writer with
            | Some w when max_depth > 1 ->
              Some (explain_write t ~max_depth:(max_depth - 1) ~visited:(key :: visited) w)
            | _ -> None
          in
          let value =
            match writer with Some w -> arg_float w.event "value" | None -> None
          in
          Some { key; value; writer; via })
      keys
  in
  (* A store write is not itself a rule decision: no rule/effects. *)
  { target = write; chain; decision = None; rule = None; effects = write.children; inputs }

let explain ?(max_depth = 4) t target =
  let chain = ancestors t target @ [ target ] in
  (* The decision is the nearest ancestor rule check (usually the
     direct parent); its children are the siblings the same decision
     fired — actions, the REPORT itself, cascaded store traffic. *)
  let decision =
    List.find_opt (fun n -> n.event.Event.cat = "check") (List.rev chain)
  in
  let rule =
    match arg_str target.event "rule" with
    | Some r -> Some r
    | None -> (
      match decision with
      | Some d ->
        d.children
        |> List.find_map (fun c -> arg_str c.event "rule")
      | None -> None)
  in
  let effects =
    match decision with
    | Some d -> List.filter (fun c -> c != target) d.children
    | None -> List.filter (fun c -> c != target) target.children
  in
  (* Inputs come from the REPORT snapshot when the target (or a
     sibling REPORT) carries one. *)
  let snapshot =
    match snapshot_keys target with
    | [] -> (
      match decision with
      | Some d -> (
        match List.find_opt (fun c -> c.event.Event.cat = "report") d.children with
        | Some r -> snapshot_keys r
        | None -> [])
      | None -> [])
    | s -> s
  in
  let inputs =
    List.map
      (fun (key, value) ->
        let writer =
          match target.span with
          | None -> None
          | Some before -> last_write t ~key ~before
        in
        let via =
          match writer with
          | Some w when max_depth > 0 ->
            Some (explain_write t ~max_depth ~visited:[ key ] w)
          | _ -> None
        in
        { key; value; writer; via })
      snapshot
  in
  { target; chain; decision; rule; effects; inputs }

(* Rendering *)

let pp_ts ppf ts = Format.fprintf ppf "%.6fs" (float_of_int ts /. 1e9)

let pp_node ppf n =
  let ev = n.event in
  Format.fprintf ppf "[%a] %s %s" pp_ts ev.Event.ts ev.Event.cat ev.Event.name;
  (match n.span with Some s -> Format.fprintf ppf " (span %d)" s | None -> ());
  (match arg_int ev "node" with
  | Some id -> Format.fprintf ppf " @@node%d" id
  | None -> ());
  let interesting =
    List.filter
      (fun (k, _) -> not (List.mem k [ "span"; "parent"; "node"; "rule" ]))
      ev.Event.args
  in
  match interesting with
  | [] -> ()
  | l ->
    Format.fprintf ppf " {%s}"
      (String.concat ", "
         (List.map
            (fun (k, v) ->
              Printf.sprintf "%s=%s" k
                (match v with
                | Event.Float f -> Printf.sprintf "%g" f
                | Event.Int i -> string_of_int i
                | Event.Str s -> s
                | Event.Bool b -> string_of_bool b))
            l))

let pp_chain ~indent ppf chain =
  List.iteri
    (fun i n ->
      Format.fprintf ppf "%s%s@[<h>%a@]@," indent
        (if i = 0 then "" else String.make ((i - 1) * 2) ' ' ^ "`- ")
        pp_node n)
    chain

let rec pp_inputs ~depth ppf inputs =
  let pad = String.make (depth * 4) ' ' in
  List.iter
    (fun { key; value; writer; via } ->
      Format.fprintf ppf "%s  %s%s@," pad key
        (match value with Some v -> Printf.sprintf " = %g" v | None -> "");
      (match writer with
      | None -> Format.fprintf ppf "%s    (no recorded write)@," pad
      | Some w -> Format.fprintf ppf "%s    written by @[<h>%a@]@," pad pp_node w);
      match via with
      | None -> ()
      | Some e ->
        (match e.chain with
        | [] | [ _ ] -> ()
        | chain ->
          Format.fprintf ppf "%s    caused by:@," pad;
          pp_chain ~indent:(pad ^ "      ") ppf (List.filteri (fun i _ -> i < List.length chain - 1) chain));
        if e.inputs <> [] then begin
          Format.fprintf ppf "%s    derived from:@," pad;
          pp_inputs ~depth:(depth + 1) ppf e.inputs
        end)
    inputs

let pp_explanation ppf e =
  Format.pp_open_vbox ppf 0;
  Format.fprintf ppf "target: @[<h>%a@]@," pp_node e.target;
  (match e.rule with Some r -> Format.fprintf ppf "rule: %s@," r | None -> ());
  Format.fprintf ppf "causal chain (root first):@,";
  pp_chain ~indent:"  " ppf e.chain;
  (match e.effects with
  | [] -> ()
  | effects ->
    Format.fprintf ppf "also caused by this decision:@,";
    List.iter (fun n -> Format.fprintf ppf "  @[<h>%a@]@," pp_node n) effects);
  (match e.inputs with
  | [] -> ()
  | inputs ->
    Format.fprintf ppf "inputs read:@,";
    pp_inputs ~depth:0 ppf inputs);
  Format.pp_close_box ppf ()

let node_to_json n = Export.json_of_event n.event

let rec explanation_to_json e =
  Json.Obj
    ([
       ("target", node_to_json e.target);
       ("chain", Json.Arr (List.map node_to_json e.chain));
     ]
    @ (match e.decision with Some d -> [ ("decision", node_to_json d) ] | None -> [])
    @ (match e.rule with Some r -> [ ("rule", Json.Str r) ] | None -> [])
    @ [
        ("effects", Json.Arr (List.map node_to_json e.effects));
        ("inputs", Json.Arr (List.map input_to_json e.inputs));
      ])

and input_to_json { key; value; writer; via } =
  Json.Obj
    ([ ("key", Json.Str key) ]
    @ (match value with Some v -> [ ("value", Json.Num v) ] | None -> [])
    @ (match writer with Some w -> [ ("writer", node_to_json w) ] | None -> [])
    @ match via with Some e -> [ ("via", explanation_to_json e) ] | None -> [])
