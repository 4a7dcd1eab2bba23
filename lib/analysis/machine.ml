module Ast = Gr_dsl.Ast
module Ir = Gr_compiler.Ir
module Monitor = Gr_compiler.Monitor
module Model = Gr_kernel.Policy_slot.Model

type config = {
  max_states : int;
  canaries : (string * int list) list;
}

let default_config = { max_states = 4096; canaries = [] }

type slot_state = Live | Canaried | Fallback

type step = { at_ns : int; step_key : string; step_value : float }

type schedule = {
  steps : step list;
  horizon_ns : int;
  expected : (string * bool) list;
  min_flips : (string * int) list;
}

type finding = {
  diag : Diagnostic.t;
  path : string list;
  schedule : schedule option;
}

type result = {
  findings : finding list;
  states : int;
  transitions : int;
  truncated : bool;
}

(* ---------- Deployment digest ---------- *)

type deploy = {
  df : Dataflow.t;
  monitors : Monitor.t array;
  policies : string array;  (* sorted *)
  policy_idx : (string, int) Hashtbl.t;
  classes : string array;  (* sorted *)
  class_idx : (string, int) Hashtbl.t;
  n_savers : int;
  saver_of : int array;  (* monitor index -> saver bit, or -1 *)
  actors : int list;  (* monitors with state-affecting actions *)
  canary : string -> int list option;
}

let state_affecting = function
  | Monitor.Replace _ | Monitor.Restore _ | Monitor.Save _ | Monitor.Deprioritize _ -> true
  | Monitor.Report _ | Monitor.Retrain _ | Monitor.Kill _ -> false

let digest config (df : Dataflow.t) =
  let marr = df.Dataflow.monitors in
  let pols = ref [] and clss = ref [] in
  Array.iter
    (fun m ->
      List.iter
        (function
          | Monitor.Replace p | Monitor.Restore p -> pols := p :: !pols
          | Monitor.Deprioritize { cls; _ } -> clss := cls :: !clss
          | _ -> ())
        m.Monitor.actions)
    marr;
  let policies = Array.of_list (List.sort_uniq compare !pols) in
  let classes = Array.of_list (List.sort_uniq compare !clss) in
  let index arr =
    let tbl = Hashtbl.create 8 in
    Array.iteri (fun i x -> Hashtbl.replace tbl x i) arr;
    tbl
  in
  let saver_of = Array.make (Array.length marr) (-1) in
  let n_savers = ref 0 in
  Array.iteri
    (fun i m ->
      if Dataflow.saves m <> [] then begin
        saver_of.(i) <- !n_savers;
        incr n_savers
      end)
    marr;
  let actors =
    List.init (Array.length marr) Fun.id
    |> List.filter (fun i -> List.exists state_affecting marr.(i).Monitor.actions)
  in
  {
    df;
    monitors = marr;
    policies;
    policy_idx = index policies;
    classes;
    class_idx = index classes;
    n_savers = !n_savers;
    saver_of;
    actors;
    canary = (fun p -> List.assoc_opt p config.canaries);
  }

(* ---------- Abstract states and transitions ---------- *)

type state = {
  slots : slot_state array;  (* indexed like [policies] *)
  fired : bool array;  (* indexed by saver bit *)
  depri : bool array;  (* indexed like [classes] *)
}

let initial d =
  {
    slots = Array.make (Array.length d.policies) Live;
    fired = Array.make d.n_savers false;
    depri = Array.make (Array.length d.classes) false;
  }

let encode st =
  let b = Buffer.create 16 in
  Array.iter
    (fun s -> Buffer.add_char b (match s with Live -> 'L' | Canaried -> 'C' | Fallback -> 'F'))
    st.slots;
  Buffer.add_char b '|';
  Array.iter (fun f -> Buffer.add_char b (if f then '1' else '0')) st.fired;
  Buffer.add_char b '|';
  Array.iter (fun f -> Buffer.add_char b (if f then '1' else '0')) st.depri;
  Buffer.contents b

(* Abstract store under a set of already-fired savers: a SAVE-written
   key is 0 (its initial value) joined with the values of the savers
   that may have run, taken under the full dataflow fixpoint — an
   over-approximation of any firing prefix, so "the rule cannot be
   false here" is a proof that the monitor cannot fire. *)
let env_of d (st : state) key =
  match Dataflow.writers d.df key with
  | [] -> Interval.unknown
  | ws ->
    List.fold_left
      (fun acc (w : Dataflow.writer) ->
        if st.fired.(d.saver_of.(w.monitor)) then Interval.join acc w.value else acc)
      (Interval.const 0.) ws

let may_fire d st mi =
  let m = d.monitors.(mi) in
  Interval.may_false
    (Dataflow.result_value ~lookup:(env_of d st) ~slots:m.Monitor.slots m.Monitor.rule)

let of_model = function Model.Learned -> Live | Model.Fallback -> Fallback
let to_model = function Live | Canaried -> Model.Learned | Fallback -> Model.Fallback

let apply d st mi =
  let slots = Array.copy st.slots
  and fired = Array.copy st.fired
  and depri = Array.copy st.depri in
  List.iter
    (function
      | Monitor.Replace p ->
        let pi = Hashtbl.find d.policy_idx p in
        slots.(pi) <-
          (match d.canary p with
          | Some _ ->
            (* A canaried REPLACE lands on the canary node subset
               only; the rest of the fleet keeps the learned
               policy. *)
            (match slots.(pi) with Fallback -> Fallback | Live | Canaried -> Canaried)
          | None -> of_model (Model.step (to_model slots.(pi)) Model.Replace))
      | Monitor.Restore p ->
        let pi = Hashtbl.find d.policy_idx p in
        slots.(pi) <- of_model (Model.step (to_model slots.(pi)) Model.Restore)
      | Monitor.Save _ -> if d.saver_of.(mi) >= 0 then fired.(d.saver_of.(mi)) <- true
      | Monitor.Deprioritize { cls; _ } -> depri.(Hashtbl.find d.class_idx cls) <- true
      | Monitor.Report _ | Monitor.Retrain _ | Monitor.Kill _ -> ())
    d.monitors.(mi).Monitor.actions;
  { slots; fired; depri }

(* ---------- Reachability ---------- *)

type graph = {
  d : deploy;
  states : state array;  (* state id -> state, BFS order *)
  pred : (int * int) option array;  (* state id -> (predecessor, firing monitor) *)
  edges : (int * int * int) list;  (* (src, monitor, dst), exploration order *)
  truncated : bool;
}

let explore config d =
  let cap = max 1 config.max_states in
  let init = initial d in
  let states = Array.make cap init and pred = Array.make cap None in
  let ids = Hashtbl.create 64 in
  let n = ref 0 and truncated = ref false and edges = ref [] in
  let q = Queue.create () in
  let add st p =
    let key = encode st in
    match Hashtbl.find_opt ids key with
    | Some id -> Some id
    | None ->
      if !n >= cap then begin
        truncated := true;
        None
      end
      else begin
        let id = !n in
        incr n;
        Hashtbl.replace ids key id;
        states.(id) <- st;
        pred.(id) <- p;
        Queue.push id q;
        Some id
      end
  in
  ignore (add init None : int option);
  while not (Queue.is_empty q) do
    let sid = Queue.pop q in
    let st = states.(sid) in
    List.iter
      (fun mi ->
        if may_fire d st mi then begin
          match add (apply d st mi) (Some (sid, mi)) with
          | Some did -> edges := (sid, mi, did) :: !edges
          | None -> ()
        end)
      d.actors
  done;
  {
    d;
    states = Array.sub states 0 !n;
    pred = Array.sub pred 0 !n;
    edges = List.rev !edges;
    truncated = !truncated;
  }

(* Monitor firing sequence from the initial state to [sid]. *)
let path_to g sid =
  let rec go acc sid =
    match g.pred.(sid) with None -> acc | Some (p, mi) -> go (mi :: acc) p
  in
  go [] sid

(* Shortest firing sequence from [src] to [dst] along explored
   edges. *)
let path_between g src dst =
  if src = dst then Some []
  else begin
    let succs = Hashtbl.create 64 in
    List.iter (fun (s, mi, t) -> Hashtbl.add succs s (mi, t)) g.edges;
    let seen = Hashtbl.create 64 in
    let q = Queue.create () in
    Hashtbl.replace seen src [];
    Queue.push src q;
    let res = ref None in
    while !res = None && not (Queue.is_empty q) do
      let s = Queue.pop q in
      let acc = Hashtbl.find seen s in
      List.iter
        (fun (mi, t) ->
          if !res = None && not (Hashtbl.mem seen t) then begin
            let acc' = acc @ [ mi ] in
            if t = dst then res := Some acc'
            else begin
              Hashtbl.replace seen t acc';
              Queue.push t q
            end
          end)
        (List.rev (Hashtbl.find_all succs s))
    done;
    !res
  end

(* Each state's strongly connected component in the explored
   graph. *)
let components g =
  let n = Array.length g.states in
  let succs = Array.make n [] in
  List.iter (fun (s, _, t) -> succs.(s) <- t :: succs.(s)) g.edges;
  let comp_of = Array.make n (-1) in
  List.iteri
    (fun c comp -> List.iter (fun v -> comp_of.(v) <- c) comp)
    (Dataflow.components n (Array.get succs));
  comp_of

(* Per policy: a REPLACE edge and a RESTORE edge inside one strongly
   connected component — each re-enables the other forever. *)
let storms g =
  let d = g.d in
  let comp_of = components g in
  let has_action mi pred = List.exists pred d.monitors.(mi).Monitor.actions in
  let internal = List.filter (fun (s, _, t) -> comp_of.(s) = comp_of.(t)) g.edges in
  Array.to_list d.policies
  |> List.filter_map (fun p ->
      let reps =
        List.filter
          (fun (_, mi, _) ->
            has_action mi (function Monitor.Replace q -> q = p | _ -> false))
          internal
      and rsts =
        List.filter
          (fun (_, mi, _) ->
            has_action mi (function Monitor.Restore q -> q = p | _ -> false))
          internal
      in
      List.find_map
        (fun ((s1, _, _) as e1) ->
          match List.find_opt (fun (s2, _, _) -> comp_of.(s2) = comp_of.(s1)) rsts with
          | Some e2 -> Some (p, e1, e2)
          | None -> None)
        reps)

(* ---------- Concrete witness evaluation ---------- *)

(* Single-sample concrete semantics: within every window each key
   holds at most one recent sample. Mirrors the feature store exactly
   for that case — empty window is 0 for every aggregate; a single
   sample v gives COUNT 1, SUM/AVG/MIN/MAX/QUANTILE v, STDDEV 0
   (count < 2), DELTA 0, RATE v/(window in s). *)
let concrete_eval ~(value_of : string -> float option) ~slots (p : Ir.program) =
  let regs = Array.make (max 1 p.Ir.n_regs) 0. in
  Array.iter
    (fun inst ->
      let v =
        match inst with
        | Ir.Const { value; _ } -> value
        | Ir.Load { slot; _ } -> Option.value ~default:0. (value_of slots.(slot))
        | Ir.Agg { fn; slot; window_ns; _ } -> (
          match value_of slots.(slot) with
          | None -> 0.
          | Some v -> (
            match fn with
            | Ast.Count -> 1.
            | Ast.Sum | Ast.Avg | Ast.Min | Ast.Max | Ast.Quantile -> v
            | Ast.Stddev | Ast.Delta -> 0.
            | Ast.Rate -> v /. (window_ns /. 1e9)))
        | Ir.Unop { op; src; _ } -> Ir.apply_unop op regs.(src)
        | Ir.Binop { op; lhs; rhs; _ } -> Ir.apply_binop op regs.(lhs) regs.(rhs)
      in
      regs.(Ir.dst inst) <- v)
    p.Ir.insts;
  if Array.length p.Ir.insts = 0 then 1. else regs.(p.Ir.result)

(* Candidate witness values: the program's own constants and simple
   derivations (around thresholds, scaled by windows for RATE). *)
let candidates (p : Ir.program) =
  let consts = ref [ 0.; 1.; 2. ] and windows = ref [] in
  Array.iter
    (function
      | Ir.Const { value; _ } when Float.is_finite value -> consts := value :: !consts
      | Ir.Agg { window_ns; _ } -> windows := (window_ns /. 1e9) :: !windows
      | _ -> ())
    p.Ir.insts;
  let base = List.concat_map (fun c -> [ c; c +. 1.; c -. 1.; c *. 2.; c /. 2. ]) !consts in
  let scaled = List.concat_map (fun w -> List.map (fun c -> c *. w) base) !windows in
  List.filter Float.is_finite (base @ scaled) |> List.sort_uniq compare

exception Found of (string * float) list

(* Exhaustive search over candidate assignments to [keys] for a
   store state under which the rule is concretely truthy (or falsy),
   in single-sample semantics. Bounded; None on exhaustion. *)
let find_assignment ~slots ~keys ~truthy (p : Ir.program) =
  let cands = candidates p in
  let budget = ref 20_000 in
  let rec go acc = function
    | [] ->
      if !budget > 0 then begin
        decr budget;
        let v = concrete_eval ~value_of:(fun k -> List.assoc_opt k acc) ~slots p in
        if Ir.truthy v = truthy then raise (Found (List.rev acc))
      end
    | k :: rest -> List.iter (fun c -> if !budget > 0 then go ((k, c) :: acc) rest) cands
  in
  try
    go [] keys;
    None
  with Found a -> Some a

(* ---------- Counterexample schedules ---------- *)

exception Give_up

let synthesize d fire_seq =
  try
    let rule_of mi = d.monitors.(mi).Monitor.rule in
    let slots_of mi = d.monitors.(mi).Monitor.slots in
    let rule_keys mi =
      Ir.read_slots (rule_of mi)
      |> List.map (fun s -> (slots_of mi).(s))
      |> List.sort_uniq compare
    in
    let window_span mi =
      let m = d.monitors.(mi) in
      List.fold_left
        (fun acc p ->
          Array.fold_left
            (fun acc inst ->
              match inst with Ir.Agg { window_ns; _ } -> Float.max acc window_ns | _ -> acc)
            acc p.Ir.insts)
        0.
        (m.Monitor.rule :: List.map snd (Dataflow.saves m))
    in
    let wmax =
      List.fold_left (fun acc mi -> Float.max acc (window_span mi)) 0. d.actors |> int_of_float
    in
    (* Witnesses land [eps] before a check so they sit inside every
       window; heals land [eps] after. *)
    let eps = if wmax = 0 then 1_000_000 else min 1_000_000 (max 1 (wmax / 2)) in
    let stagger = min 1_000 (max 1 (eps / 8)) in
    let gap = wmax + (2 * eps) in
    let assignment ~truthy mi =
      let keys = rule_keys mi in
      if List.length keys > 4 then raise Give_up;
      match find_assignment ~slots:(slots_of mi) ~keys ~truthy (rule_of mi) with
      | Some a -> a
      | None -> raise Give_up
    in
    let steps = ref [] in
    let push at key v = steps := { at_ns = at; step_key = key; step_value = v } :: !steps in
    let cursor = ref eps in
    (* Prologue: heal every state-affecting monitor whose rule is
       concretely falsy over the initial empty store, so nothing
       keeps firing outside its slot in the sequence. *)
    List.iter
      (fun mi ->
        if concrete_eval ~value_of:(fun _ -> None) ~slots:(slots_of mi) (rule_of mi) = 0. then
          List.iter
            (fun (k, v) ->
              push !cursor k v;
              cursor := !cursor + stagger)
            (assignment ~truthy:true mi))
      d.actors;
    cursor := !cursor + gap;
    (* One firing per sequence element: witness just before the
       monitor's next check, heal just after, then let the windows
       drain before the next element. *)
    List.iter
      (fun mi ->
        let m = d.monitors.(mi) in
        let witness = assignment ~truthy:false mi in
        let heal = assignment ~truthy:true mi in
        let timer =
          List.find_map
            (function
              | Monitor.Timer { start_ns; interval_ns; stop_ns } ->
                Some (start_ns, interval_ns, stop_ns)
              | _ -> None)
            m.Monitor.triggers
        and on_change =
          List.find_map (function Monitor.On_change k -> Some k | _ -> None) m.Monitor.triggers
        in
        let inject at pairs =
          List.iteri (fun j (k, v) -> push (at + (j * stagger)) k v) pairs
        in
        match (timer, on_change) with
        | Some (start_ns, interval_ns, stop_ns), _ ->
          let c =
            if !cursor + eps <= start_ns then start_ns
            else
              start_ns
              + ((!cursor + eps - start_ns + interval_ns - 1) / interval_ns * interval_ns)
          in
          (match stop_ns with Some stop when c >= stop -> raise Give_up | _ -> ());
          inject (c - eps) witness;
          inject (c + eps) heal;
          cursor := c + eps + gap
        | None, Some key ->
          let c = !cursor + eps in
          let witness =
            if List.mem_assoc key witness then witness else witness @ [ (key, 0.) ]
          in
          (* The watched key's write goes last: it is the one that
             triggers the check. *)
          inject (c - eps) (List.filter (fun (k, _) -> k <> key) witness);
          push c key (List.assoc key witness);
          inject (c + eps) (List.filter (fun (k, _) -> k <> key) heal);
          (match List.assoc_opt key heal with
          | Some v -> push (c + eps + (4 * stagger)) key v
          | None -> ());
          cursor := c + eps + gap
        | None, None -> raise Give_up)
      fire_seq;
    (* Expected end state and minimum flip counts, from the abstract
       fold along the firing sequence. *)
    let touched =
      List.concat_map
        (fun mi ->
          List.filter_map
            (function Monitor.Replace p | Monitor.Restore p -> Some p | _ -> None)
            d.monitors.(mi).Monitor.actions)
        fire_seq
      |> List.sort_uniq compare
    in
    let flips = Hashtbl.create 4 in
    let final =
      List.fold_left
        (fun st mi ->
          let st' = apply d st mi in
          Array.iteri
            (fun pi s ->
              if s <> st.slots.(pi) then begin
                let p = d.policies.(pi) in
                Hashtbl.replace flips p (1 + Option.value ~default:0 (Hashtbl.find_opt flips p))
              end)
            st'.slots;
          st')
        (initial d) fire_seq
    in
    Some
      {
        steps = List.rev !steps;
        horizon_ns = !cursor + gap;
        expected =
          List.map
            (fun p -> (p, final.slots.(Hashtbl.find d.policy_idx p) = Fallback))
            touched;
        min_flips =
          List.map
            (fun p -> (p, Option.value ~default:0 (Hashtbl.find_opt flips p)))
            touched;
      }
  with Give_up -> None

(* ---------- Findings ---------- *)

let check ?(config = default_config) (df : Dataflow.t) =
  let d = digest config df in
  let g = explore config d in
  let nstates = Array.length g.states in
  let name mi = d.monitors.(mi).Monitor.name in
  let names path = List.map name path in
  let grl201 =
    (* Sound only on the full graph: a RESTORE might fire or act in a
       state the truncated exploration never reached. *)
    if g.truncated then []
    else
      List.concat
        (List.mapi
           (fun mi (m : Monitor.t) ->
             List.filter_map
               (function
                 | Monitor.Restore p ->
                   let pi = Hashtbl.find d.policy_idx p in
                   let fires = List.filter (fun (_, emi, _) -> emi = mi) g.edges in
                   if fires = [] && List.mem mi d.actors then
                     Some
                       {
                         diag =
                           Diagnostic.warning ~monitor:m.Monitor.name ~pos:m.Monitor.pos
                             ~code:"GRL201"
                             (Printf.sprintf
                                "RESTORE %S is dead code: monitor %s can never fire in any \
                                 reachable state (%d state(s) explored)"
                                p m.Monitor.name nstates);
                         path = [];
                         schedule = None;
                       }
                   else if
                     fires <> []
                     && List.for_all (fun (s, _, _) -> g.states.(s).slots.(pi) = Live) fires
                   then begin
                     let s0, _, _ = List.hd fires in
                     Some
                       {
                         diag =
                           Diagnostic.warning ~monitor:m.Monitor.name ~pos:m.Monitor.pos
                             ~code:"GRL201"
                             (Printf.sprintf
                                "RESTORE %S can never act: policy %S is live in every reachable \
                                 state where monitor %s fires — no REPLACE can precede it (%d \
                                 state(s) explored)"
                                p p m.Monitor.name nstates);
                         path = names (path_to g s0);
                         schedule = None;
                       }
                   end
                   else None
                 | _ -> None)
               m.Monitor.actions)
           (Array.to_list d.monitors))
  in
  let grl202 =
    if g.truncated then []
    else
      Array.to_list d.policies
      |> List.filter_map (fun p ->
          match d.canary p with
          | None -> None
          | Some nodes ->
            let pi = Hashtbl.find d.policy_idx p in
            let first_with s =
              let found = ref None in
              Array.iteri
                (fun sid st -> if !found = None && st.slots.(pi) = s then found := Some sid)
                g.states;
              !found
            in
            (match (first_with Canaried, first_with Fallback) with
            | Some sid, None ->
              let replacer =
                match path_to g sid with [] -> "?" | seq -> name (List.hd (List.rev seq))
              in
              Some
                {
                  diag =
                    Diagnostic.warning ~monitor:replacer ~code:"GRL202"
                      (Printf.sprintf
                         "canaried policy %S (nodes %s) reaches the canary state but no \
                          reachable action sequence extends the fallback fleet-wide: the canary \
                          can never promote (%d state(s) explored)"
                         p
                         (String.concat "," (List.map string_of_int nodes))
                         nstates);
                  path = names (path_to g sid);
                  schedule = None;
                }
            | _ -> None))
  in
  let grl203 =
    storms g
    |> List.filter_map (fun (p, (s1, m1, t1), (s2, m2, _)) ->
        match path_between g t1 s2 with
        | None -> None
        | Some mid ->
          let fire_seq = path_to g s1 @ [ m1 ] @ mid @ [ m2 ] in
          Some
            {
              diag =
                Diagnostic.warning ~monitor:(name m1)
                  ~pos:d.monitors.(m1).Monitor.pos ~code:"GRL203"
                  (Printf.sprintf
                     "policy %S can flap forever: REPLACE by %s and RESTORE by %s are jointly \
                      reachable and re-enable each other"
                     p (name m1) (name m2));
              path = names fire_seq;
              schedule = synthesize d fire_seq;
            })
  in
  {
    findings = grl201 @ grl202 @ grl203;
    states = nstates;
    transitions = List.length g.edges;
    truncated = g.truncated;
  }
