open Gr_util

let json_of_arg : Event.arg -> Json.t = function
  | Event.Float x -> Num x
  | Event.Int i -> Num (float_of_int i)
  | Event.Str s -> Str s
  | Event.Bool b -> Bool b

(* Ints and floats both serialize as JSON numbers; integral numbers
   decode as Int. Event.equal treats Int/Float as numerically
   equivalent, so round-trips compare equal. *)
let arg_of_json (j : Json.t) : (Event.arg, string) result =
  match j with
  | Num x when Float.is_integer x && Float.abs x < 1e15 -> Ok (Event.Int (int_of_float x))
  | Num x -> Ok (Event.Float x)
  | Str s -> Ok (Event.Str s)
  | Bool b -> Ok (Event.Bool b)
  | Obj [ ("f", Num x) ] -> Ok (Event.Float x)
  | _ -> Error "unsupported arg value"

let json_of_event (ev : Event.t) : Json.t =
  let base =
    [
      ("name", Json.Str ev.name);
      ("cat", Json.Str ev.cat);
      ("ph", Json.Str (Event.phase_to_string ev.ph));
      ("ts", Json.Num (Time_ns.to_float_us ev.ts));
      ("pid", Json.Num 1.);
      ("tid", Json.Num 1.);
    ]
  in
  let dur = if ev.ph = Event.Complete then [ ("dur", Json.Num (ev.dur_ns /. 1e3)) ] else [] in
  let args =
    match ev.args with
    | [] -> []
    | args -> [ ("args", Json.Obj (List.map (fun (k, v) -> (k, json_of_arg v)) args)) ]
  in
  Json.Obj (base @ dur @ args)

let chrome_of_events events : Json.t =
  Obj
    [
      ("traceEvents", Arr (List.map json_of_event events));
      ("displayTimeUnit", Str "ns");
    ]

let merged_events tracer =
  List.stable_sort
    (fun (a : Event.t) (b : Event.t) -> Time_ns.compare a.ts b.ts)
    (Sink.to_list (Tracer.events tracer) @ Sink.to_list (Tracer.reports tracer))

let chrome tracer = chrome_of_events (merged_events tracer)
let chrome_string tracer = Json.to_string (chrome tracer)

let write_chrome ~path tracer =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (chrome_string tracer);
      output_char oc '\n')

let ( let* ) = Result.bind

let event_of_json (j : Json.t) : (Event.t, string) result =
  let field name =
    match Json.member name j with Some v -> Ok v | None -> Error ("missing " ^ name)
  in
  let* name = field "name" in
  let* name = Option.to_result ~none:"name not a string" (Json.string_value name) in
  let* cat = field "cat" in
  let* cat = Option.to_result ~none:"cat not a string" (Json.string_value cat) in
  let* ph = field "ph" in
  let* ph = Option.to_result ~none:"ph not a string" (Json.string_value ph) in
  let* ph = Option.to_result ~none:"unknown phase" (Event.phase_of_string ph) in
  let* ts = field "ts" in
  let* ts_us = Option.to_result ~none:"ts not a number" (Json.float_value ts) in
  let ts = Time_ns.ns (int_of_float (Float.round (ts_us *. 1e3))) in
  let dur_ns =
    match Json.member "dur" j with
    | Some d -> ( match Json.float_value d with Some us -> us *. 1e3 | None -> 0.)
    | None -> 0.
  in
  let* args =
    match Json.member "args" j with
    | None -> Ok []
    | Some (Obj kvs) ->
      List.fold_left
        (fun acc (k, v) ->
          let* acc = acc in
          let* a = arg_of_json v in
          Ok ((k, a) :: acc))
        (Ok []) kvs
      |> Result.map List.rev
    | Some _ -> Error "args not an object"
  in
  Ok (Event.make ~ts ~dur_ns ~args ~cat ~ph name)

let events_of_chrome (j : Json.t) : (Event.t list, string) result =
  match Json.member "traceEvents" j with
  | Some (Arr evs) ->
    List.fold_left
      (fun acc ev ->
        let* acc = acc in
        let* e = event_of_json ev in
        Ok (e :: acc))
      (Ok []) evs
    |> Result.map List.rev
  | Some _ -> Error "traceEvents not an array"
  | None -> Error "missing traceEvents"

let events_of_chrome_string s =
  let* j = Json.parse s in
  events_of_chrome j

(* JSONL: one Chrome trace object per line — the append-only audit
   log's format (Audit_log). Blank lines are tolerated so a reader
   can cope with a trailing newline or a log truncated mid-append. *)
let events_of_jsonl_string s =
  let lines = String.split_on_char '\n' s in
  let rec go acc n = function
    | [] -> Ok (List.rev acc)
    | line :: rest ->
      if String.trim line = "" then go acc (n + 1) rest
      else (
        match Json.parse line with
        | Error e -> Error (Printf.sprintf "line %d: %s" n e)
        | Ok j -> (
          match event_of_json j with
          | Error e -> Error (Printf.sprintf "line %d: %s" n e)
          | Ok ev -> go (ev :: acc) (n + 1) rest))
  in
  go [] 1 lines

let events_of_any_string s =
  match events_of_chrome_string s with
  | Ok evs -> Ok evs
  | Error chrome_err -> (
    match events_of_jsonl_string s with
    | Ok evs -> Ok evs
    | Error jsonl_err ->
      Error
        (Printf.sprintf "neither a Chrome trace (%s) nor JSONL events (%s)" chrome_err
           jsonl_err))

let pp_sink fmt name sink =
  Format.fprintf fmt "%-8s %8d buffered / %8d emitted / %8d dropped (capacity %d)@\n" name
    (Sink.length sink) (Sink.emitted sink) (Sink.dropped sink) (Sink.capacity sink)

let pp_summary fmt tracer =
  pp_sink fmt "events" (Tracer.events tracer);
  pp_sink fmt "reports" (Tracer.reports tracer);
  Metrics.pp fmt (Tracer.metrics tracer)

(* ---- OpenMetrics exposition over whole tracers ----

   Monitor families (from the registries) plus the observability
   plane's own accounting: sink throughput/drops per channel and the
   self-overhead counters, so a scrape answers both "what did the
   guardrails do" and "what did watching them cost". *)

let om_sink_row buf ~metric ~channel ?node v =
  Buffer.add_string buf
    (Printf.sprintf "%s_total{channel=%S%s} %d\n" metric channel
       (match node with None -> "" | Some id -> Printf.sprintf ",node=\"%d\"" id)
       v)

let om_sink_family buf ~metric ~help ~value tracers =
  Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" metric help);
  Buffer.add_string buf (Printf.sprintf "# TYPE %s counter\n" metric);
  List.iter
    (fun tr ->
      let node = Tracer.node_id tr in
      om_sink_row buf ~metric ~channel:"events" ?node (value (Tracer.events tr));
      om_sink_row buf ~metric ~channel:"reports" ?node (value (Tracer.reports tr)))
    tracers

let openmetrics_of_tracers tracers =
  let buf = Buffer.create 8192 in
  Metrics.openmetrics_into buf (List.map Tracer.metrics tracers);
  om_sink_family buf ~metric:"guardrail_trace_emitted"
    ~help:"Events accepted by a trace channel." ~value:Sink.emitted tracers;
  om_sink_family buf ~metric:"guardrail_trace_dropped"
    ~help:"Events rejected or overwritten on channel overflow." ~value:Sink.dropped tracers;
  Buffer.add_string buf "# EOF\n";
  Buffer.contents buf

let openmetrics tracer = openmetrics_of_tracers [ tracer ]

let write_openmetrics ~path tracers =
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (openmetrics_of_tracers tracers))
