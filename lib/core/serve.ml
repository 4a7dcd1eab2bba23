(* The grc serve session: request dispatch and reply JSON over a
   Lifecycle. The transport lives in bin/grc.ml, so this library still
   links no unix. *)

module J = Gr_trace.Json
module L = Lifecycle

let max_advance_epochs = 10_000
let max_request_bytes = 1 lsl 20

type t = { lc : L.t; mutable stopped : bool }

let create lc = { lc; stopped = false }
let stopped t = t.stopped
let error msg = J.Obj [ ("ok", J.Bool false); ("error", J.Str msg) ]
let int n = J.Num (float_of_int n)

let decision_json = function
  | L.Admitted { version } ->
    J.Obj [ ("ok", J.Bool true); ("decision", J.Str "admitted"); ("version", int version) ]
  | L.Rejected { version; reason; diagnostics } ->
    J.Obj
      [
        ("ok", J.Bool false);
        ("decision", J.Str "rejected");
        ("version", int version);
        ("reason", J.Str reason);
        ("diagnostics", J.Arr (List.map Gr_analysis.Diagnostic.to_json diagnostics));
      ]

let status_json lc =
  J.Obj
    [
      ("ok", J.Bool true);
      ("phase", J.Str (L.phase_name lc));
      ("now_sec", J.Num (Gr_util.Time_ns.to_float_sec (L.now lc)));
      ( "active",
        match L.active lc with
        | None -> J.Null
        | Some v ->
          J.Obj [ ("version", int v.L.id); ("digest", J.Str v.L.digest); ("who", J.Str v.L.who) ]
      );
      ("versions", int (L.version_count lc));
      ("promotions", int (L.promotions lc));
      ("rollbacks", int (L.rollbacks lc));
    ]

let str_field name req = Option.bind (J.member name req) J.string_value

(* [None] when [epochs] is present but not an integer in range. *)
let epochs req =
  match J.member "epochs" req with
  | None -> Some 1
  | Some j -> (
    match J.int_value j with
    | Some n when n >= 0 && n <= max_advance_epochs -> Some n
    | _ -> None)

let reply t req =
  match str_field "cmd" req with
  | Some "push" -> (
    match str_field "spec" req with
    | None -> error "push requires a spec field"
    | Some spec ->
      let who = Option.value ~default:"anonymous" (str_field "who" req) in
      decision_json (L.push t.lc ~who spec))
  | Some "advance" -> (
    match epochs req with
    | Some n ->
      L.advance t.lc ~epochs:n;
      status_json t.lc
    | None ->
      error (Printf.sprintf "advance takes an integer epochs in [0, %d]" max_advance_epochs))
  | Some "status" -> status_json t.lc
  | Some "quit" ->
    t.stopped <- true;
    J.Obj [ ("ok", J.Bool true); ("stopping", J.Bool true) ]
  | _ -> error "unknown cmd (expected push|advance|status|quit)"

let handle t raw =
  let resp =
    if String.length raw > max_request_bytes then
      error (Printf.sprintf "request exceeds %d bytes" max_request_bytes)
    else
      match J.parse raw with Error e -> error ("bad request: " ^ e) | Ok req -> reply t req
  in
  J.to_string resp ^ "\n"
