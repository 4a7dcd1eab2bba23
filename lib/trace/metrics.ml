type cost = {
  mutable vm_ns : float;
  mutable check_ns : float;
  mutable min_ns : float;
  mutable max_ns : float;
}

type check_out = { mutable value : float; mutable cost_ns : float }

type account = {
  name : string;
  mutable checks : int;
  mutable violations : int;
  mutable fires : int;
  mutable vm_insts : int;
  mutable samples_scanned : int;
  cost : cost;
}

type monitor = {
  name : string;
  checks : int;
  violations : int;
  fires : int;
  vm_cost_ns : float;
  check_cost_ns : float;
  min_ns : float;
  max_ns : float;
  vm_insts : int;
  samples_scanned : int;
}

(* [live] in registration order, so [monitor] finds the oldest. *)
type entry = { mutable live : account list; retired : account }
type t = { table : (string, entry) Hashtbl.t; node_id : int option }

let create () = { table = Hashtbl.create 16; node_id = None }
let for_node id = { table = Hashtbl.create 16; node_id = Some id }

let fresh name : account =
  {
    name;
    checks = 0;
    violations = 0;
    fires = 0;
    vm_insts = 0;
    samples_scanned = 0;
    cost = { vm_ns = 0.; check_ns = 0.; min_ns = infinity; max_ns = neg_infinity };
  }

let entry t name =
  match Hashtbl.find t.table name with
  | e -> e
  | exception Not_found ->
    let e = { live = []; retired = fresh name } in
    Hashtbl.add t.table name e;
    e

let register t name =
  let e = entry t name in
  let a = fresh name in
  e.live <- e.live @ [ a ];
  a

let monitor t name = match (entry t name).live with a :: _ -> a | [] -> register t name

let absorb (into : account) (a : account) =
  into.checks <- into.checks + a.checks;
  into.violations <- into.violations + a.violations;
  into.fires <- into.fires + a.fires;
  into.vm_insts <- into.vm_insts + a.vm_insts;
  into.samples_scanned <- into.samples_scanned + a.samples_scanned;
  let c = into.cost and d = a.cost in
  c.vm_ns <- c.vm_ns +. d.vm_ns;
  c.check_ns <- c.check_ns +. d.check_ns;
  if d.min_ns < c.min_ns then c.min_ns <- d.min_ns;
  if d.max_ns > c.max_ns then c.max_ns <- d.max_ns

let retire t (a : account) =
  match Hashtbl.find_opt t.table a.name with
  | Some e when List.memq a e.live ->
    absorb e.retired a;
    e.live <- List.filter (fun b -> b != a) e.live
  | _ -> ()

let live_accounts t = Hashtbl.fold (fun _ e n -> n + List.length e.live) t.table 0

let row e : monitor =
  let s = fresh e.retired.name in
  List.iter (absorb s) (e.retired :: e.live);
  {
    name = s.name;
    checks = s.checks;
    violations = s.violations;
    fires = s.fires;
    vm_cost_ns = s.cost.vm_ns;
    check_cost_ns = s.cost.check_ns;
    min_ns = s.cost.min_ns;
    max_ns = s.cost.max_ns;
    vm_insts = s.vm_insts;
    samples_scanned = s.samples_scanned;
  }

let monitors t =
  Hashtbl.fold (fun _ e acc -> row e :: acc) t.table []
  |> List.sort (fun (a : monitor) b -> String.compare a.name b.name)

(* Every float stays in the float-only [cost] record, so none of these
   updates boxes. *)
let[@inline] count_check (a : account) ~cost_ns ~insts ~samples ~violated =
  a.checks <- a.checks + 1;
  if violated then a.violations <- a.violations + 1;
  a.vm_insts <- a.vm_insts + insts;
  a.samples_scanned <- a.samples_scanned + samples;
  let c = a.cost in
  c.vm_ns <- c.vm_ns +. cost_ns;
  c.check_ns <- c.check_ns +. cost_ns;
  if cost_ns < c.min_ns then c.min_ns <- cost_ns;
  if cost_ns > c.max_ns then c.max_ns <- cost_ns

let record_check a ~cost_ns ~insts ~samples ~violated =
  count_check a ~cost_ns ~insts ~samples ~violated

let record_check_out a (o : check_out) ~insts ~samples ~violated =
  count_check a ~cost_ns:o.cost_ns ~insts ~samples ~violated

let record_fire (a : account) = a.fires <- a.fires + 1
let record_action_cost (a : account) ~cost_ns = a.cost.vm_ns <- a.cost.vm_ns +. cost_ns
let mean_ns (m : monitor) = m.check_cost_ns /. float_of_int m.checks
let num x : Json.t = if Float.is_finite x then Num x else Null

let monitor_to_json (m : monitor) : Json.t =
  Json.Obj
    [
      ("name", Str m.name);
      ("checks", Num (float_of_int m.checks));
      ("violations", Num (float_of_int m.violations));
      ("fires", Num (float_of_int m.fires));
      ("vm_cost_ns", num m.vm_cost_ns);
      ("vm_insts", Num (float_of_int m.vm_insts));
      ("samples_scanned", Num (float_of_int m.samples_scanned));
      ("latency_ns", Obj [ ("mean", num (mean_ns m)); ("min", num m.min_ns); ("max", num m.max_ns) ]);
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
  let rows = List.map (fun t -> (t, monitors t)) ts in
  let family (name, help, value) =
    Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" name help);
    Buffer.add_string buf (Printf.sprintf "# TYPE %s counter\n" name);
    List.iter
      (fun (t, ms) ->
        List.iter
          (fun m ->
            Buffer.add_string buf
              (Printf.sprintf "%s_total%s %s\n" name (om_labels (mlabels t m)) (om_num (value m))))
          ms)
      rows;
    if List.length ts > 1 then begin
      let merged = Hashtbl.create 16 in
      let order = ref [] in
      List.iter
        (fun (_, ms) ->
          List.iter
            (fun (m : monitor) ->
              (match Hashtbl.find_opt merged m.name with
              | None -> order := m.name :: !order
              | Some _ -> ());
              Hashtbl.replace merged m.name
                (value m +. Option.value ~default:0. (Hashtbl.find_opt merged m.name)))
            ms)
        rows;
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
  (* Check cost as a summary of count and sum: the rules' cost alone,
     so [_sum / _count] is the mean check cost. *)
  let name = "guardrail_check_latency_ns" in
  Buffer.add_string buf
    (Printf.sprintf "# HELP %s Per-check VM cost distribution (estimated ns).\n" name);
  Buffer.add_string buf (Printf.sprintf "# TYPE %s summary\n" name);
  List.iter
    (fun (t, ms) ->
      List.iter
        (fun m ->
          let labels = om_labels (mlabels t m) in
          Buffer.add_string buf (Printf.sprintf "%s_count%s %d\n" name labels m.checks);
          Buffer.add_string buf
            (Printf.sprintf "%s_sum%s %s\n" name labels (om_num m.check_cost_ns)))
        ms)
    rows

let pp fmt t =
  Format.fprintf fmt "%-28s %8s %10s %7s %12s %10s %10s@\n" "monitor" "checks" "violations"
    "fires" "vm cost" "mean" "max";
  List.iter
    (fun m ->
      Format.fprintf fmt "%-28s %8d %10d %7d %10.0fns %8.1fns %8.1fns@\n" m.name m.checks
        m.violations m.fires m.vm_cost_ns (mean_ns m) m.max_ns)
    (monitors t)
