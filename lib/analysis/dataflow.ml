module Ast = Gr_dsl.Ast
module Ir = Gr_compiler.Ir
module Monitor = Gr_compiler.Monitor

(* ---------- Abstract evaluation of straight-line programs ---------- *)

let eval_unop op v =
  match op with
  | Ast.Neg -> Interval.neg v
  | Ast.Abs -> Interval.abs v
  | Ast.Not -> Interval.not_ v

let eval_binop op a b =
  match op with
  | Ast.Add -> Interval.add a b
  | Ast.Sub -> Interval.sub a b
  | Ast.Mul -> Interval.mul a b
  | Ast.Div -> Interval.div a b
  | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.Eq | Ast.Ne -> Interval.cmp op a b
  | Ast.And -> Interval.and_ a b
  | Ast.Or -> Interval.or_ a b

(* Range of a windowed aggregate given the key's sample range. An
   empty window yields 0 in the feature store, so 0 is always
   included. *)
let eval_agg (fn : Ast.agg) key_av =
  match fn with
  | Ast.Count | Ast.Rate | Ast.Stddev -> Interval.finite 0. infinity
  | Ast.Avg | Ast.Min | Ast.Max | Ast.Quantile -> Interval.join (Interval.const 0.) key_av
  | Ast.Sum ->
    (* Magnitude scales with the (unbounded) sample count. *)
    let h = Interval.join (Interval.const 0.) key_av in
    {
      h with
      Interval.lo = (if Interval.may_neg h then neg_infinity else h.Interval.lo);
      hi = (if Interval.may_pos h then infinity else h.Interval.hi);
    }
  | Ast.Delta ->
    (* last − first: the self-difference of the sample range. *)
    Interval.join (Interval.const 0.) (Interval.sub key_av key_av)

(* Evaluates a straight-line program, returning the per-register
   abstract values (single assignment makes the final register file a
   complete record of every intermediate). *)
let eval_program ~lookup ~(slots : string array) (p : Ir.program) =
  let regs = Array.make (max 1 p.Ir.n_regs) Interval.bot in
  Array.iter
    (fun inst ->
      let v =
        match inst with
        | Ir.Const { value; _ } -> Interval.const value
        | Ir.Load { slot; _ } -> lookup slots.(slot)
        | Ir.Agg { fn; slot; _ } -> eval_agg fn (lookup slots.(slot))
        | Ir.Unop { op; src; _ } -> eval_unop op regs.(src)
        | Ir.Binop { op; lhs; rhs; _ } -> eval_binop op regs.(lhs) regs.(rhs)
      in
      regs.(Ir.dst inst) <- v)
    p.Ir.insts;
  regs

let result_value ~lookup ~slots (p : Ir.program) =
  if Array.length p.Ir.insts = 0 then Interval.unknown
  else (eval_program ~lookup ~slots p).(p.Ir.result)

let saves m =
  List.filter_map
    (function Monitor.Save { key; value } -> Some (key, value) | _ -> None)
    m.Monitor.actions

(* ---------- The SAVE dataflow fixpoint ---------- *)

type writer = { monitor : int; value : Interval.t }

type t = {
  monitors : Monitor.t array;
  env : (string, Interval.t) Hashtbl.t;
  keys : string list;
  writers : (string, writer list) Hashtbl.t;
  rounds : int;
  widenings : int;
}

let warmup_rounds = 3
let max_rounds = 64
let narrow_rounds = 2

(* SAVE-written keys in first-written order, plus each key's writers
   as (monitor index, value program) in deployment order. *)
let programs monitors =
  let tbl = Hashtbl.create 16 and order = ref [] in
  Array.iteri
    (fun i m ->
      List.iter
        (fun (key, value) ->
          let prev =
            match Hashtbl.find_opt tbl key with
            | Some ws -> ws
            | None ->
              order := key :: !order;
              []
          in
          Hashtbl.replace tbl key (prev @ [ (i, value) ]))
        (saves m))
    monitors;
  (List.rev !order, tbl)

(* F(env)(key): join over the key's SAVE programs under [env], plus 0
   — the store's initial value, which every key holds before its
   first write. *)
let transfer ~lookup monitors ptbl key =
  List.fold_left
    (fun acc (i, value) ->
      Interval.join acc (result_value ~lookup ~slots:monitors.(i).Monitor.slots value))
    (Interval.const 0.) (Hashtbl.find ptbl key)

let env_lookup env key =
  match Hashtbl.find_opt env key with Some v -> v | None -> Interval.unknown

let lookup t key = env_lookup t.env key

let writers t key = Option.value ~default:[] (Hashtbl.find_opt t.writers key)

let fixpoint monitors =
  let monitors = Array.of_list monitors in
  let order, ptbl = programs monitors in
  let transfer ~lookup = transfer ~lookup monitors ptbl in
  let env = Hashtbl.create 16 in
  List.iter (fun k -> Hashtbl.replace env k (Interval.const 0.)) order;
  let lookup = env_lookup env in
  let rounds = ref 0 and widenings = ref 0 in
  (* Ascending chaotic iteration from the all-initial environment,
     switching from plain join to widening after a few warmup rounds
     so converging chains keep exact bounds while genuinely growing
     ones jump to ±∞ and stabilize. *)
  let changed = ref true in
  while !changed && !rounds < max_rounds do
    incr rounds;
    changed := false;
    List.iter
      (fun k ->
        let cur = Hashtbl.find env k in
        let nxt = transfer ~lookup k in
        if not (Interval.subset nxt cur) then begin
          let nxt =
            if !rounds > warmup_rounds then begin
              incr widenings;
              Interval.widen cur nxt
            end
            else Interval.join cur nxt
          in
          Hashtbl.replace env k nxt;
          changed := true
        end)
      order
  done;
  (* Bounded narrowing: re-apply the exact transfer a few times into a
     copy, keeping a key's refinement only when it shrinks, and adopt
     the copy only if it is still a post-fixpoint — widened bounds
     that were overshoot come back, genuine ones stay at ±∞. *)
  let narrowed = Hashtbl.copy env in
  let nlookup = env_lookup narrowed in
  for _ = 1 to narrow_rounds do
    List.iter
      (fun k ->
        let cur = Hashtbl.find narrowed k in
        let nxt = transfer ~lookup:nlookup k in
        if Interval.subset nxt cur then Hashtbl.replace narrowed k nxt)
      order
  done;
  let still_post =
    List.for_all (fun k -> Interval.subset (transfer ~lookup:nlookup k) (nlookup k)) order
  in
  let env = if still_post then narrowed else env in
  (* Each writer's SAVE value under the final environment. *)
  let lookup = env_lookup env in
  let writers = Hashtbl.create 16 in
  Hashtbl.iter
    (fun key ws ->
      Hashtbl.replace writers key
        (List.map
           (fun (i, value) ->
             { monitor = i; value = result_value ~lookup ~slots:monitors.(i).Monitor.slots value })
           ws))
    ptbl;
  { monitors; env; keys = order; writers; rounds = !rounds; widenings = !widenings }

let is_post_fixpoint t =
  let order, ptbl = programs t.monitors in
  List.for_all
    (fun k -> Interval.subset (transfer ~lookup:(lookup t) t.monitors ptbl k) (lookup t k))
    order

(* ---------- Strongly connected components ---------- *)

(* Tarjan's algorithm over vertices [0, n). Components come out in
   completion order: each after every component it reaches. *)
let components n succs =
  let index = Array.make n (-1) and lowlink = Array.make n 0 and on_stack = Array.make n false in
  let stack = ref [] and counter = ref 0 and comps = ref [] in
  let rec strongconnect v =
    index.(v) <- !counter;
    lowlink.(v) <- !counter;
    incr counter;
    stack := v :: !stack;
    on_stack.(v) <- true;
    List.iter
      (fun w ->
        if index.(w) < 0 then begin
          strongconnect w;
          lowlink.(v) <- min lowlink.(v) lowlink.(w)
        end
        else if on_stack.(w) then lowlink.(v) <- min lowlink.(v) index.(w))
      (succs v);
    if lowlink.(v) = index.(v) then begin
      let rec pop acc =
        match !stack with
        | w :: rest ->
          stack := rest;
          on_stack.(w) <- false;
          if w = v then w :: acc else pop (w :: acc)
        | [] -> acc
      in
      comps := pop [] :: !comps
    end
  in
  for v = 0 to n - 1 do
    if index.(v) < 0 then strongconnect v
  done;
  List.rev !comps
