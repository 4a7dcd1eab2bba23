open Gr_util

type monitor = {
  name : string;
  mutable checks : int;
  mutable violations : int;
  mutable fires : int;
  mutable vm_cost_ns : float;
  mutable vm_insts : int;
  mutable samples_scanned : int;
  latency : Stats.Welford.t;
  latency_p50 : Stats.P2.t;
  latency_p90 : Stats.P2.t;
  latency_p99 : Stats.P2.t;
}

type t = { table : (string, monitor) Hashtbl.t; node_id : int option }

let create () = { table = Hashtbl.create 16; node_id = None }
let for_node id = { table = Hashtbl.create 16; node_id = Some id }
let node_id t = t.node_id

let monitor t name =
  match Hashtbl.find_opt t.table name with
  | Some m -> m
  | None ->
    let m =
      {
        name;
        checks = 0;
        violations = 0;
        fires = 0;
        vm_cost_ns = 0.;
        vm_insts = 0;
        samples_scanned = 0;
        latency = Stats.Welford.create ();
        latency_p50 = Stats.P2.create ~q:0.5;
        latency_p90 = Stats.P2.create ~q:0.9;
        latency_p99 = Stats.P2.create ~q:0.99;
      }
    in
    Hashtbl.add t.table name m;
    m

let find t name = Hashtbl.find_opt t.table name

let monitors t =
  Hashtbl.fold (fun _ m acc -> m :: acc) t.table []
  |> List.sort (fun a b -> String.compare a.name b.name)

let record_check m ~cost_ns ~insts ~samples ~violated =
  m.checks <- m.checks + 1;
  if violated then m.violations <- m.violations + 1;
  m.vm_cost_ns <- m.vm_cost_ns +. cost_ns;
  m.vm_insts <- m.vm_insts + insts;
  m.samples_scanned <- m.samples_scanned + samples;
  Stats.Welford.add m.latency cost_ns;
  Stats.P2.add m.latency_p50 cost_ns;
  Stats.P2.add m.latency_p90 cost_ns;
  Stats.P2.add m.latency_p99 cost_ns

let record_fire m = m.fires <- m.fires + 1
let record_action_cost m ~cost_ns = m.vm_cost_ns <- m.vm_cost_ns +. cost_ns

let latency_quantile m q =
  if m.checks = 0 then nan
  else if q = 0.5 then Stats.P2.quantile m.latency_p50
  else if q = 0.9 then Stats.P2.quantile m.latency_p90
  else if q = 0.99 then Stats.P2.quantile m.latency_p99
  else invalid_arg "Metrics.latency_quantile: q must be 0.5, 0.9 or 0.99"

let num x : Json.t = if Float.is_finite x then Num x else Null

let monitor_to_json m : Json.t =
  Json.Obj
    [
      ("name", Str m.name);
      ("checks", Num (float_of_int m.checks));
      ("violations", Num (float_of_int m.violations));
      ("fires", Num (float_of_int m.fires));
      ("vm_cost_ns", num m.vm_cost_ns);
      ("vm_insts", Num (float_of_int m.vm_insts));
      ("samples_scanned", Num (float_of_int m.samples_scanned));
      ( "latency_ns",
        Obj
          [
            ("mean", num (Stats.Welford.mean m.latency));
            ("min", if m.checks = 0 then Null else num (Stats.Welford.min m.latency));
            ("max", if m.checks = 0 then Null else num (Stats.Welford.max m.latency));
            ("p50", num (latency_quantile m 0.5));
            ("p90", num (latency_quantile m 0.9));
            ("p99", num (latency_quantile m 0.99));
          ] );
    ]

let to_json t : Json.t =
  let monitors_field = ("monitors", Json.Arr (List.map monitor_to_json (monitors t))) in
  match t.node_id with
  | None -> Obj [ monitors_field ]
  | Some id -> Obj [ ("node", Num (float_of_int id)); monitors_field ]

(* ---- OpenMetrics / Prometheus text rendering ---- *)

let om_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let om_labels = function
  | [] -> ""
  | labels ->
    "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (om_escape v)) labels)
    ^ "}"

let om_num x =
  if Float.is_nan x then "NaN"
  else if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.9g" x

(* Monitor-scoped label set: node label only on fleet registries, so
   single-node output has no spurious label dimension. *)
let mlabels t m =
  ("monitor", m.name)
  :: (match t.node_id with None -> [] | Some id -> [ ("node", string_of_int id) ])

let counter_families =
  [
    ("guardrail_checks", "Rule checks executed.", fun m -> float_of_int m.checks);
    ("guardrail_violations", "Checks whose rule evaluated unhealthy.", fun m -> float_of_int m.violations);
    ("guardrail_fires", "Action firings (cooldown-gated).", fun m -> float_of_int m.fires);
    ("guardrail_vm_cost_ns", "Estimated VM nanoseconds spent in rules and actions.", fun m -> m.vm_cost_ns);
    ("guardrail_vm_insts", "VM instructions executed.", fun m -> float_of_int m.vm_insts);
    ("guardrail_samples_scanned", "Store samples scanned by aggregates.", fun m -> float_of_int m.samples_scanned);
  ]

(* Families for a set of registries (one per deployment; a fleet
   passes control + every node). With more than one registry, each
   counter family also gets merged rollup rows — summed across nodes,
   no node label — so fleet dashboards can consume one series per
   monitor without PromQL re-aggregation. No trailing EOF: callers
   compose further families ({!Export}). *)
let openmetrics_into buf ts =
  let mons t = monitors t in
  let family (name, help, value) =
    Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" name help);
    Buffer.add_string buf (Printf.sprintf "# TYPE %s counter\n" name);
    List.iter
      (fun t ->
        List.iter
          (fun m ->
            Buffer.add_string buf
              (Printf.sprintf "%s_total%s %s\n" name (om_labels (mlabels t m)) (om_num (value m))))
          (mons t))
      ts;
    if List.length ts > 1 then begin
      let merged = Hashtbl.create 16 in
      let order = ref [] in
      List.iter
        (fun t ->
          List.iter
            (fun m ->
              (match Hashtbl.find_opt merged m.name with
              | None -> order := m.name :: !order
              | Some _ -> ());
              Hashtbl.replace merged m.name
                (value m +. Option.value ~default:0. (Hashtbl.find_opt merged m.name)))
            (mons t))
        ts;
      List.iter
        (fun name_ ->
          Buffer.add_string buf
            (Printf.sprintf "%s_total%s %s\n" name
               (om_labels [ ("monitor", name_); ("scope", "fleet") ])
               (om_num (Hashtbl.find merged name_))))
        (List.rev !order)
    end
  in
  List.iter family counter_families;
  (* Check latency as a summary: streaming quantiles plus count/sum. *)
  let name = "guardrail_check_latency_ns" in
  Buffer.add_string buf
    (Printf.sprintf "# HELP %s Per-check VM cost distribution (estimated ns).\n" name);
  Buffer.add_string buf (Printf.sprintf "# TYPE %s summary\n" name);
  List.iter
    (fun t ->
      List.iter
        (fun m ->
          let base = mlabels t m in
          List.iter
            (fun q ->
              Buffer.add_string buf
                (Printf.sprintf "%s%s %s\n" name
                   (om_labels (base @ [ ("quantile", q) ]))
                   (om_num (latency_quantile m (float_of_string q)))))
            [ "0.5"; "0.9"; "0.99" ];
          Buffer.add_string buf
            (Printf.sprintf "%s_count%s %d\n" name (om_labels base) m.checks);
          Buffer.add_string buf
            (Printf.sprintf "%s_sum%s %s\n" name (om_labels base) (om_num m.vm_cost_ns)))
        (mons t))
    ts

let to_openmetrics ts =
  let buf = Buffer.create 4096 in
  openmetrics_into buf ts;
  Buffer.add_string buf "# EOF\n";
  Buffer.contents buf

let pp fmt t =
  Format.fprintf fmt "%-28s %8s %10s %7s %12s %10s %10s %10s@\n" "monitor" "checks"
    "violations" "fires" "vm cost" "p50" "p90" "p99";
  List.iter
    (fun m ->
      Format.fprintf fmt "%-28s %8d %10d %7d %10.0fns %8.1fns %8.1fns %8.1fns@\n" m.name
        m.checks m.violations m.fires m.vm_cost_ns (latency_quantile m 0.5)
        (latency_quantile m 0.9) (latency_quantile m 0.99))
    (monitors t)
