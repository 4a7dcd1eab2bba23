module Ir = Gr_compiler.Ir

(* ---------- closure template JIT (tier 2) ----------

   [member] specializes a verified program at install time into a flat
   array of effect closures over a frame it shares with its trigger
   group: a check is one tight loop of indirect calls with no per-check
   dispatch, no operand decoding and no frame allocation.

   A group is the set of programs one trigger runs: the monitors armed
   on one FUNCTION hook or ON_CHANGE key (see engine.ml), or a single
   program on its own. Its prologue is the union of the members' LOAD
   and AGG reads, duplicates removed: each distinct input — a key, or
   an aggregate's (key, fn, window, param) shape — owns one cell of
   the group frame and a store handle resolved once, here. An input is
   read at most once per frame epoch, by the first member that needs
   it: each member checks its inputs' epoch stamps and reads the stale
   ones, unless the group's count of inputs read in this epoch says
   none is stale. [invalidate] starts a new epoch, which the engine
   does at every dispatch and after any action, so no member reads a
   value older than the interpreter would. Inputs are refcounted by the
   programs reading them: the last one to [leave] drops the input, so
   a released demand is never read again.

   Reads are physical once and logical per member. Each member still
   counts its own LOADs and aggregate hits or misses and emits its own
   aggregate trace instants, in program order, before its body runs
   (Feature_store.count_loads/count_aggregate), so store counters and
   trace bytes are what per-member interpretation gives. An aggregate's
   scanned-sample charge is the interpreter's too: the first reader
   after a physical read pays its whole scan, every later one only what
   a repeat read pays (Feature_store.agg_result.per_read).

   Specializations applied to the body, in order:
   - constants are folded: a Const never executes at check time, and
     any Unop/Binop whose inputs are all known folds at compile time
     (via Ir.apply_unop/apply_binop, so folded arithmetic is
     bit-identical to the interpreted kind);
   - LOAD and AGG registers are renamed to their input's frame cell and
     emit no step; every other register gets a cell of its own;
   - each remaining instruction becomes a closure from a hand-written
     template library, operator and constant operands baked into the
     closure environment (36 binop shapes: op x {reg·reg, reg·const,
     const·reg});
   - chain fusion: a product by a constant and the Add/Sub that consume
     it grow one step, acc ± k·r, for as long as each intermediate has
     that single reader — a whole linear form (the inner loop of a
     distilled linear-model guardrail) is one closure. Its loop adds
     the terms left to right with the operand order of the source, so
     the value is bit-identical to the interpreter's. A product nothing
     claims, and a plain two-term a ± b, keep their ordinary templates.

   Fusion claims only the most recently emitted steps, and only when
   the fusing instruction is their sole reader. Accounting stays
   tier-invariant: [insts_executed] reports the original instruction
   count and the static cost is the original program's.

   Frame accesses are unsafe_get/set: every register index was bounds-
   checked by Gr_compiler.Verify before install and every cell is
   handed out below the frame's length, the same trust boundary the
   interpreter relies on. *)

type agg = {
  h : Feature_store.agg_handle;
  mutable charge : int;  (** scanned samples the next reader is charged *)
  mutable per_read : int;
  mutable incremental : bool;
}

type source = Load of Feature_store.load_handle | Agg of agg
type shape = Key of string | Window of string * Gr_dsl.Ast.agg * float * float

type input = {
  shape : shape;
  at : int;  (** its frame cell *)
  source : source;
  mutable refs : int;  (** programs reading it *)
  mutable stamp : int;  (** the epoch its cell was read in *)
}

type group = {
  store : Feature_store.t;
  mutable frame : float array;
      (** read through the group on every step, so it can grow without
          recompiling anyone *)
  mutable top : int;
  mutable free : int list;
  inputs : (shape, input) Hashtbl.t;
  mutable epoch : int;
  mutable fresh : int;
      (** the inputs read in this epoch: once that is all of them, no
          member checks a stamp *)
}

type t = {
  group : group;
  reads : input array;  (** distinct, in first-read order *)
  loads : (Feature_store.t * int) array;  (** LOADs per counting store *)
  aggs : agg array;  (** one per AGG instruction, in program order *)
  cells : int list;  (** the cells of its own registers *)
  steps : (unit -> unit) array;
  result : int;
  n_insts : int;
  static_cost : float;
  out : Vm.out;
  mutable samples : int;
  mutable left : bool;
}

let group store =
  {
    store;
    frame = Array.make 8 0.;
    top = 0;
    free = [];
    inputs = Hashtbl.create 4;
    epoch = 0;
    fresh = 0;
  }

let invalidate g =
  g.epoch <- g.epoch + 1;
  g.fresh <- 0

let cell g v =
  let c =
    match g.free with
    | c :: rest ->
      g.free <- rest;
      c
    | [] ->
      if g.top = Array.length g.frame then begin
        let bigger = Array.make (2 * g.top) 0. in
        Array.blit g.frame 0 bigger 0 g.top;
        g.frame <- bigger
      end;
      g.top <- g.top + 1;
      g.top - 1
  in
  g.frame.(c) <- v;
  c

let input g shape =
  match Hashtbl.find_opt g.inputs shape with
  | Some x -> x
  | None ->
    let source =
      match shape with
      | Key key -> Load (Option.get (Feature_store.load_handle g.store key))
      | Window (key, fn, window_ns, param) ->
        let h = Feature_store.agg_handle g.store ~key ~fn ~window_ns ~param in
        Agg { h; charge = 0; per_read = 0; incremental = true }
    in
    let x = { shape; at = cell g 0.; source; refs = 0; stamp = g.epoch - 1 } in
    Hashtbl.add g.inputs shape x;
    x

let read g x =
  x.stamp <- g.epoch;
  g.fresh <- g.fresh + 1;
  match x.source with
  | Load h -> Array.unsafe_set g.frame x.at (Feature_store.peek h)
  | Agg a ->
    let r = Feature_store.scan a.h in
    a.charge <- r.scanned;
    a.per_read <- r.per_read;
    a.incremental <- r.incremental;
    Array.unsafe_set g.frame x.at r.value

let of_bool = Ir.of_bool
let[@inline] get g i = Array.unsafe_get g.frame i
let[@inline] set g i v = Array.unsafe_set g.frame i v

(* One template per binop shape. [cc] (const·const) never reaches the
   emitters — it folds. *)
let binop_rr g op dst lhs rhs =
  match (op : Gr_dsl.Ast.binop) with
  | Add -> fun () -> set g dst (get g lhs +. get g rhs)
  | Sub -> fun () -> set g dst (get g lhs -. get g rhs)
  | Mul -> fun () -> set g dst (get g lhs *. get g rhs)
  | Div ->
    fun () ->
      let b = get g rhs in
      set g dst (if b = 0. then 0. else get g lhs /. b)
  | Lt -> fun () -> set g dst (of_bool (get g lhs < get g rhs))
  | Le -> fun () -> set g dst (of_bool (get g lhs <= get g rhs))
  | Gt -> fun () -> set g dst (of_bool (get g lhs > get g rhs))
  | Ge -> fun () -> set g dst (of_bool (get g lhs >= get g rhs))
  | Eq -> fun () -> set g dst (of_bool (get g lhs = get g rhs))
  | Ne -> fun () -> set g dst (of_bool (get g lhs <> get g rhs))
  | And -> fun () -> set g dst (of_bool (get g lhs <> 0. && get g rhs <> 0.))
  | Or -> fun () -> set g dst (of_bool (get g lhs <> 0. || get g rhs <> 0.))

let binop_rc g op dst lhs k =
  match (op : Gr_dsl.Ast.binop) with
  | Add -> fun () -> set g dst (get g lhs +. k)
  | Sub -> fun () -> set g dst (get g lhs -. k)
  | Mul -> fun () -> set g dst (get g lhs *. k)
  | Div -> if k = 0. then fun () -> set g dst 0. else fun () -> set g dst (get g lhs /. k)
  | Lt -> fun () -> set g dst (of_bool (get g lhs < k))
  | Le -> fun () -> set g dst (of_bool (get g lhs <= k))
  | Gt -> fun () -> set g dst (of_bool (get g lhs > k))
  | Ge -> fun () -> set g dst (of_bool (get g lhs >= k))
  | Eq -> fun () -> set g dst (of_bool (get g lhs = k))
  | Ne -> fun () -> set g dst (of_bool (get g lhs <> k))
  | And ->
    if k = 0. then fun () -> set g dst 0. else fun () -> set g dst (of_bool (get g lhs <> 0.))
  | Or ->
    if k <> 0. then fun () -> set g dst 1. else fun () -> set g dst (of_bool (get g lhs <> 0.))

let binop_cr g op dst k rhs =
  match (op : Gr_dsl.Ast.binop) with
  | Add -> fun () -> set g dst (k +. get g rhs)
  | Sub -> fun () -> set g dst (k -. get g rhs)
  | Mul -> fun () -> set g dst (k *. get g rhs)
  | Div ->
    fun () ->
      let b = get g rhs in
      set g dst (if b = 0. then 0. else k /. b)
  | Lt -> fun () -> set g dst (of_bool (k < get g rhs))
  | Le -> fun () -> set g dst (of_bool (k <= get g rhs))
  | Gt -> fun () -> set g dst (of_bool (k > get g rhs))
  | Ge -> fun () -> set g dst (of_bool (k >= get g rhs))
  | Eq -> fun () -> set g dst (of_bool (k = get g rhs))
  | Ne -> fun () -> set g dst (of_bool (k <> get g rhs))
  | And ->
    if k = 0. then fun () -> set g dst 0. else fun () -> set g dst (of_bool (get g rhs <> 0.))
  | Or ->
    if k <> 0. then fun () -> set g dst 1. else fun () -> set g dst (of_bool (get g rhs <> 0.))

(* A chain term: [op] 0 adds x·k, 1 subtracts x·k, 2 adds k·x, 3
   subtracts k·x — the source's own operator and operand order, so
   every rounding matches the interpreter's. A chain starts from x·k
   (0) or k·x (2). A plain x is x·1, which is x exactly, a NaN's bits
   included once the sum quiets it. *)
type term = { k : float; x : int; op : int }

let product ~swap ~sub = (if swap then 2 else 0) + if sub then 1 else 0

(* dst <- start, then acc <- acc ± term for each term, left to right.
   Consecutive terms of one operator form a run, a loop with no
   per-term dispatch: a linear form is a single run. *)
let chain g dst start terms =
  let rec runs = function
    | [] -> []
    | t :: _ as ts ->
      let rec split run = function
        | t' :: ts when t'.op = t.op -> split (t' :: run) ts
        | rest -> (List.rev run, rest)
      in
      let run, rest = split [] ts in
      let ks = Array.of_list (List.map (fun t -> t.k) run)
      and xs = Array.of_list (List.map (fun t -> t.x) run) in
      (t.op, ks, xs) :: runs rest
  in
  let runs = Array.of_list (runs terms) in
  let sk = start.k and sx = start.x and sop = start.op in
  fun () ->
    let f = g.frame in
    let v = Array.unsafe_get f sx in
    let acc = ref (if sop = 0 then v *. sk else sk *. v) in
    for r = 0 to Array.length runs - 1 do
      let op, ks, xs = Array.unsafe_get runs r in
      let n = Array.length xs - 1 in
      (* Written out per operator: a local accessor function would be a
         closure allocated on every run. *)
      let module A = Array in
      match op with
      | 0 ->
        for i = 0 to n do
          acc := !acc +. (A.unsafe_get f (A.unsafe_get xs i) *. A.unsafe_get ks i)
        done
      | 1 ->
        for i = 0 to n do
          acc := !acc -. (A.unsafe_get f (A.unsafe_get xs i) *. A.unsafe_get ks i)
        done
      | 2 ->
        for i = 0 to n do
          acc := !acc +. (A.unsafe_get ks i *. A.unsafe_get f (A.unsafe_get xs i))
        done
      | _ ->
        for i = 0 to n do
          acc := !acc -. (A.unsafe_get ks i *. A.unsafe_get f (A.unsafe_get xs i))
        done
    done;
    Array.unsafe_set f dst !acc

(* A step under construction, kept open so the next instruction can
   claim it: a product by a constant awaiting its Add/Sub ([x] is a
   register, [swap] when the constant was the left factor), a chain
   awaiting more terms (newest first), or a finished closure. *)
type pending =
  | Pmul of { dst : int; x : int; k : float; swap : bool }
  | Pchain of { dst : int; start : term; terms : term list }
  | Pop of (unit -> unit)

let member g ~slots (p : Ir.program) =
  let n = max 1 p.n_regs in
  let const = Array.make n None in
  let uses = Ir.use_counts p in
  (* register -> frame cell, handed out on first use *)
  let loc = Array.make n (-1) in
  let cells = ref [] in
  let reg r =
    if loc.(r) < 0 then begin
      let c = cell g (Option.value const.(r) ~default:0.) in
      cells := c :: !cells;
      loc.(r) <- c
    end;
    loc.(r)
  in
  let reads = ref [] and loads = ref [] and aggs = ref [] in
  let use dst shape =
    let x = input g shape in
    if not (List.memq x !reads) then begin
      x.refs <- x.refs + 1;
      reads := x :: !reads
    end;
    loc.(dst) <- x.at;
    x.source
  in
  let steps = ref [] in
  let emit s = steps := s :: !steps in
  let compile_inst inst =
    match inst with
    | Ir.Const { dst; value } -> const.(dst) <- Some value
    | Ir.Load { dst; slot } -> (
      match use dst (Key slots.(slot)) with
      | Load h ->
        let s = Feature_store.handle_store h in
        loads :=
          (s, 1 + Option.value (List.assq_opt s !loads) ~default:0)
          :: List.remove_assq s !loads
      | Agg _ -> assert false)
    | Ir.Agg { dst; fn; slot; window_ns; param } -> (
      match use dst (Window (slots.(slot), fn, window_ns, param)) with
      | Agg a -> aggs := a :: !aggs
      | Load _ -> assert false)
    | Ir.Unop { dst; op; src } -> (
      match const.(src) with
      | Some v -> const.(dst) <- Some (Ir.apply_unop op v)
      | None ->
        let dst = reg dst and src = reg src in
        emit
          (Pop
             (match op with
             | Gr_dsl.Ast.Neg -> fun () -> set g dst (-.get g src)
             | Gr_dsl.Ast.Abs -> fun () -> set g dst (Float.abs (get g src))
             | Gr_dsl.Ast.Not -> fun () -> set g dst (of_bool (get g src = 0.)))))
    | Ir.Binop { dst; op; lhs; rhs } -> (
      match (const.(lhs), const.(rhs), op) with
      | Some a, Some b, _ -> const.(dst) <- Some (Ir.apply_binop op a b)
      | None, Some k, Gr_dsl.Ast.Mul -> emit (Pmul { dst; x = lhs; k; swap = false })
      | Some k, None, Gr_dsl.Ast.Mul -> emit (Pmul { dst; x = rhs; k; swap = true })
      | None, Some k, _ -> emit (Pop (binop_rc g op (reg dst) (reg lhs) k))
      | Some k, None, _ -> emit (Pop (binop_cr g op (reg dst) k (reg rhs)))
      | None, None, (Gr_dsl.Ast.Add | Gr_dsl.Ast.Sub) ->
        let sub = op = Gr_dsl.Ast.Sub in
        let term, rest =
          match !steps with
          | Pmul { dst = r; x; k; swap } :: rest when r = rhs && uses.(r) = 1 ->
            ({ k; x = reg x; op = product ~swap ~sub }, rest)
          | rest -> ({ k = 1.; x = reg rhs; op = product ~swap:false ~sub }, rest)
        in
        let start, terms, rest =
          match rest with
          | Pchain { dst = r; start; terms } :: rest when r = lhs && uses.(r) = 1 ->
            (start, terms, rest)
          | Pmul { dst = r; x; k; swap } :: rest when r = lhs && uses.(r) = 1 ->
            ({ k; x = reg x; op = product ~swap ~sub:false }, [], rest)
          | rest -> ({ k = 1.; x = reg lhs; op = 0 }, [], rest)
        in
        steps := Pchain { dst; start; terms = term :: terms } :: rest
      | None, None, _ -> emit (Pop (binop_rr g op (reg dst) (reg lhs) (reg rhs))))
  in
  Array.iter compile_inst p.insts;
  (* An unclaimed product and a plain two-term sum or difference take
     the ordinary templates; x·1 is x, so the latter is a one-term
     chain's value. *)
  let finish = function
    | Pmul { dst; x; k; swap = false } -> binop_rc g Mul (reg dst) (reg x) k
    | Pmul { dst; x; k; swap = true } -> binop_cr g Mul (reg dst) k (reg x)
    | Pchain
        { dst; start = { k = 1.; x = a; op = 0 }; terms = [ { k = 1.; x = b; op = (0 | 1) as op } ] }
      ->
      binop_rr g (if op = 0 then Add else Sub) (reg dst) a b
    | Pchain { dst; start; terms } -> chain g (reg dst) start (List.rev terms)
    | Pop f -> f
  in
  let steps = Array.of_list (List.rev_map finish !steps) in
  let result = reg p.result in
  {
    group = g;
    reads = Array.of_list (List.rev !reads);
    loads = Array.of_list !loads;
    aggs = Array.of_list (List.rev !aggs);
    cells = !cells;
    steps;
    result;
    n_insts = Array.length p.insts;
    static_cost = Ir.static_cost_ns p;
    out = { Vm.value = 0.; cost_ns = 0. };
    samples = 0;
    left = false;
  }

let compile ~store ~slots p = member (group store) ~slots p

let leave j =
  if not j.left then begin
    j.left <- true;
    let g = j.group in
    Array.iter
      (fun x ->
        x.refs <- x.refs - 1;
        if x.refs = 0 then begin
          if x.stamp = g.epoch then g.fresh <- g.fresh - 1;
          Hashtbl.remove g.inputs x.shape;
          g.free <- x.at :: g.free
        end)
      j.reads;
    g.free <- List.rev_append j.cells g.free
  end

let exec j =
  let g = j.group in
  if g.fresh < Hashtbl.length g.inputs then begin
    let reads = j.reads in
    for i = 0 to Array.length reads - 1 do
      let x = Array.unsafe_get reads i in
      if x.stamp <> g.epoch then read g x
    done
  end;
  let loads = j.loads in
  for i = 0 to Array.length loads - 1 do
    let s, n = Array.unsafe_get loads i in
    Feature_store.count_loads s n
  done;
  let samples = ref 0 and cost = ref j.static_cost in
  let aggs = j.aggs in
  for i = 0 to Array.length aggs - 1 do
    let a = Array.unsafe_get aggs i in
    let c = a.charge in
    a.charge <- a.per_read;
    samples := !samples + c;
    cost := !cost +. (float_of_int c *. Vm.sample_scan_cost_ns);
    Feature_store.count_aggregate a.h ~scanned:c ~incremental:a.incremental
  done;
  let steps = j.steps in
  for i = 0 to Array.length steps - 1 do
    (Array.unsafe_get steps i) ()
  done;
  j.samples <- !samples;
  j.out.cost_ns <- !cost;
  j.out.value <- get g j.result

let out j = j.out
let samples j = j.samples
let insts j = j.n_insts

let run j =
  invalidate j.group;
  exec j;
  {
    Vm.value = j.out.value;
    insts_executed = j.n_insts;
    samples_scanned = j.samples;
    est_cost_ns = j.out.cost_ns;
  }
