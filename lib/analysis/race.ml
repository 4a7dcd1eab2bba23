module Ast = Gr_dsl.Ast
module Ir = Gr_compiler.Ir
module Monitor = Gr_compiler.Monitor

(* Two periodic check grids share an instant iff
   (s2 − s1) mod gcd(i1, i2) = 0; ON_CHANGE and FUNCTION triggers can
   coincide with anything. *)
let rec gcd a b = if b = 0 then a else gcd b (a mod b)

let timers m =
  List.filter_map
    (function
      | Monitor.Timer { start_ns; interval_ns; stop_ns } -> Some (start_ns, interval_ns, stop_ns)
      | _ -> None)
    m.Monitor.triggers

let only_timer_triggered m =
  m.Monitor.triggers <> []
  && List.for_all (function Monitor.Timer _ -> true | _ -> false) m.Monitor.triggers

(* The earliest shared instant of two timer grids, if any. *)
let tie_instant (s1, i1, stop1) (s2, i2, stop2) =
  if i1 <= 0 || i2 <= 0 then None
  else begin
    let (sl, il, stl), (sh, ih, sth) =
      if s1 <= s2 then ((s1, i1, stop1), (s2, i2, stop2))
      else ((s2, i2, stop2), (s1, i1, stop1))
    in
    if (sh - sl) mod gcd il ih <> 0 then None
    else begin
      (* Walk the later-starting grid; the gcd test guarantees a hit
         within lcm/ih steps, bounded here far beyond any real
         spec. *)
      let ok t =
        (match stl with None -> true | Some s -> t < s)
        && match sth with None -> true | Some s -> t < s
      in
      let rec walk t k =
        if k > 1_000_000 then None
        else if t >= sl && (t - sl) mod il = 0 then if ok t then Some t else None
        else walk (t + ih) (k + 1)
      in
      walk sh 0
    end
  end

let coincide a b =
  if only_timer_triggered a && only_timer_triggered b then begin
    let rec first = function
      | [] -> None
      | ta :: rest -> (
        match List.find_map (fun tb -> tie_instant ta tb) (timers b) with
        | Some t -> Some t
        | None -> first rest)
    in
    first (timers a)
  end
  else Some 0 (* ON_CHANGE / FUNCTION triggers can always coincide *)

(* Writers whose merged value cannot depend on order: every SAVE is
   provably the same single constant. *)
let commutative (writers : Dataflow.writer list) =
  let single (w : Dataflow.writer) =
    let v = w.value in
    if
      Interval.has_finite v && v.Interval.lo = v.Interval.hi
      && (not v.Interval.pinf) && (not v.Interval.ninf) && not v.Interval.nan
    then Some v.Interval.lo
    else None
  in
  match writers with
  | [] -> true
  | w0 :: rest -> (
    match single w0 with
    | None -> false
    | Some c -> List.for_all (fun w -> single w = Some c) rest)

(* Readers for which the merged key's replay order is observable:
   LOAD sees the last write, DELTA the first-vs-last of the window.
   The multiset aggregates (COUNT/SUM/AVG/.../RATE) are insensitive
   to same-timestamp ordering. *)
let sensitive_reads key (m : Monitor.t) =
  let progs = m.Monitor.rule :: List.map snd (Dataflow.saves m) in
  let kinds = ref [] in
  List.iter
    (fun (p : Ir.program) ->
      Array.iter
        (fun inst ->
          match inst with
          | Ir.Load { slot; _ } when m.Monitor.slots.(slot) = key ->
            kinds := "LOAD" :: !kinds
          | Ir.Agg { fn = Ast.Delta; slot; _ } when m.Monitor.slots.(slot) = key ->
            kinds := "DELTA" :: !kinds
          | _ -> ())
        p.Ir.insts)
    progs;
  List.sort_uniq compare !kinds

let check (df : Dataflow.t) ~nodes =
  let monitor (w : Dataflow.writer) = df.Dataflow.monitors.(w.monitor) in
  let node (w : Dataflow.writer) = nodes.(w.monitor) in
  let out = ref [] in
  List.iter
    (fun key ->
      let writers = Dataflow.writers df key in
      let writer_nodes = List.map node writers |> List.sort_uniq compare in
      if List.length writer_nodes >= 2 && not (commutative writers) then begin
        (* A pair of writers on different nodes whose checks can land
           on the same instant: the merge tie-breaks on
           (ts, node, order). *)
        let pair =
          List.find_map
            (fun a ->
              List.find_map
                (fun b ->
                  if node a <> node b then
                    Option.map (fun t -> (a, b, t)) (coincide (monitor a) (monitor b))
                  else None)
                writers)
            writers
        in
        match pair with
        | None -> ()
        | Some (a, b, t) ->
          let readers =
            Array.to_list df.Dataflow.monitors
            |> List.filter_map (fun m ->
                match sensitive_reads key m with
                | [] -> None
                | ks -> Some (Printf.sprintf "%s via %s" m.Monitor.name (String.concat "+" ks)))
            |> List.sort_uniq compare
          in
          let a_m = monitor a and b_m = monitor b in
          if readers <> [] then
            out :=
              Diagnostic.warning ~monitor:a_m.Monitor.name ~pos:a_m.Monitor.pos ~code:"GRL301"
                (Printf.sprintf
                   "GLOBAL key %S is written from %d nodes with checks that can coincide (e.g. \
                    t=%dns: %s on node %d vs %s on node %d, values %s vs %s): the merged value \
                    depends on the (ts, node, order) intent-replay tie-break; order-sensitive \
                    reader(s): %s"
                   key (List.length writer_nodes) t a_m.Monitor.name (node a)
                   b_m.Monitor.name (node b)
                   (Interval.to_string a.value) (Interval.to_string b.value)
                   (String.concat ", " readers))
              :: !out
      end)
    (List.filter Ast.is_global_key df.Dataflow.keys);
  List.rev !out
