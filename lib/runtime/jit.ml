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
     claims, and a plain two-term a ± b, keep their ordinary templates;
   - linear banks: a member's first chain whose cells are all group
     inputs joins the bank of the member compiled before it when the
     two chains have the same start and the same (cell, operator)
     sequence, else opens one. A bank computes its rows four at a time,
     once per frame epoch, in the chain's own operation order (see
     "linear banks" below); [leave] takes the member's row out.

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

(* A linear bank (see "linear banks" below): one row per member. *)
type row = { mutable i : int;  (** its place in the bank *) ks : float array }

type bank = {
  shape : (int * int) list;  (** (cell, operator) of the start, then of each term *)
  sx : int;
  sop : int;
  ops : int array;  (** per run of one operator, as in [chain] *)
  xs : int array array;  (** the run's cells *)
  width : int;  (** constants per row: the start's, then each term's *)
  rows : row Gr_util.Vec.t;
  mutable ks : Float.Array.t;
  mutable vals : Float.Array.t;  (** each row's value in its block's epoch *)
  mutable stamps : int array;  (** per block of four rows *)
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
  mutable bank : bank option;  (** the last member's, which the next may join *)
}

type t = {
  group : group;
  reads : input array;  (** distinct, in first-read order *)
  loads : (Feature_store.t * int) array;  (** LOADs per counting store *)
  aggs : agg array;  (** one per AGG instruction, in program order *)
  cells : int list;  (** the cells of its own registers *)
  steps : (unit -> unit) array;
  row : (bank * row) option;
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
    bank = None;
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

(* Consecutive terms of one operator, as (operator, terms) runs. *)
let rec runs = function
  | [] -> []
  | t :: _ as ts ->
    let rec split run = function
      | t' :: ts when t'.op = t.op -> split (t' :: run) ts
      | rest -> (List.rev run, rest)
    in
    let run, rest = split [] ts in
    (t.op, run) :: runs rest

let ks run = Array.of_list (List.map (fun t -> t.k) run)
let xs run = Array.of_list (List.map (fun t -> t.x) run)

(* dst <- start, then acc <- acc ± term for each term, left to right.
   Each run is a loop with no per-term dispatch: a linear form is a
   single run. *)
let chain g dst start terms =
  let runs = Array.of_list (List.map (fun (op, run) -> (op, ks run, xs run)) (runs terms)) in
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

(* ---------- linear banks ----------

   A bank holds the linear forms of consecutive members of one group
   that have one shape: the same start and the same (cell, operator)
   sequence, every cell a group input. Each member owns a row of
   constants. Rows sit in blocks of four, in install order, their
   constants lane-interleaved in one Float.Array (row r's j-th at
   [((r / 4) * width + j) * 4 + r mod 4]). [fill] computes a block in
   one pass that reads each input cell once and carries four unboxed
   accumulators, each adding its own row's terms left to right with the
   source's operators: the float operations [chain] would do for that
   row, in its order, so every value is bit-identical.

   A block's stamp is the epoch its values are of. A member's step
   fills its block when the stamp is stale, then reads its row: a
   healthy dispatch fills each block once, and after an action starts
   a new epoch only the blocks still ahead are filled again. The cells
   a bank reads are inputs of every member in it, so the first member
   of a block to check in an epoch has read them all, and they hold
   what any later member of the block would read in that epoch. *)

let stale = min_int
let[@inline] at_k b r j = ((((r lsr 2) * b.width) + j) * 4) + (r land 3)

let fill g b blk =
  let module F = Float.Array in
  let f = g.frame and ks = b.ks in
  let base = blk * b.width * 4 in
  let v = Array.unsafe_get f b.sx in
  let a0 = ref 0. and a1 = ref 0. and a2 = ref 0. and a3 = ref 0. in
  if b.sop = 0 then begin
    a0 := v *. F.unsafe_get ks base;
    a1 := v *. F.unsafe_get ks (base + 1);
    a2 := v *. F.unsafe_get ks (base + 2);
    a3 := v *. F.unsafe_get ks (base + 3)
  end
  else begin
    a0 := F.unsafe_get ks base *. v;
    a1 := F.unsafe_get ks (base + 1) *. v;
    a2 := F.unsafe_get ks (base + 2) *. v;
    a3 := F.unsafe_get ks (base + 3) *. v
  end;
  let j = ref (base + 4) in
  for r = 0 to Array.length b.ops - 1 do
    let xs = Array.unsafe_get b.xs r in
    let n = Array.length xs - 1 and j0 = !j in
    (* Written out per operator, as in [chain]. *)
    (match Array.unsafe_get b.ops r with
    | 0 ->
      for i = 0 to n do
        let x = Array.unsafe_get f (Array.unsafe_get xs i) and k = j0 + (4 * i) in
        a0 := !a0 +. (x *. F.unsafe_get ks k);
        a1 := !a1 +. (x *. F.unsafe_get ks (k + 1));
        a2 := !a2 +. (x *. F.unsafe_get ks (k + 2));
        a3 := !a3 +. (x *. F.unsafe_get ks (k + 3))
      done
    | 1 ->
      for i = 0 to n do
        let x = Array.unsafe_get f (Array.unsafe_get xs i) and k = j0 + (4 * i) in
        a0 := !a0 -. (x *. F.unsafe_get ks k);
        a1 := !a1 -. (x *. F.unsafe_get ks (k + 1));
        a2 := !a2 -. (x *. F.unsafe_get ks (k + 2));
        a3 := !a3 -. (x *. F.unsafe_get ks (k + 3))
      done
    | 2 ->
      for i = 0 to n do
        let x = Array.unsafe_get f (Array.unsafe_get xs i) and k = j0 + (4 * i) in
        a0 := !a0 +. (F.unsafe_get ks k *. x);
        a1 := !a1 +. (F.unsafe_get ks (k + 1) *. x);
        a2 := !a2 +. (F.unsafe_get ks (k + 2) *. x);
        a3 := !a3 +. (F.unsafe_get ks (k + 3) *. x)
      done
    | _ ->
      for i = 0 to n do
        let x = Array.unsafe_get f (Array.unsafe_get xs i) and k = j0 + (4 * i) in
        a0 := !a0 -. (F.unsafe_get ks k *. x);
        a1 := !a1 -. (F.unsafe_get ks (k + 1) *. x);
        a2 := !a2 -. (F.unsafe_get ks (k + 2) *. x);
        a3 := !a3 -. (F.unsafe_get ks (k + 3) *. x)
      done);
    j := j0 + (4 * (n + 1))
  done;
  let r = 4 * blk in
  F.unsafe_set b.vals r !a0;
  F.unsafe_set b.vals (r + 1) !a1;
  F.unsafe_set b.vals (r + 2) !a2;
  F.unsafe_set b.vals (r + 3) !a3;
  Array.unsafe_set b.stamps blk g.epoch

(* Writes the constants of rows [from] on into their places, and marks
   their blocks stale. *)
let relayout b ~from =
  for r = from to Gr_util.Vec.length b.rows - 1 do
    let row = Gr_util.Vec.get b.rows r in
    row.i <- r;
    Array.iteri (fun j k -> Float.Array.set b.ks (at_k b r j) k) row.ks
  done;
  Array.fill b.stamps (from lsr 2) (Array.length b.stamps - (from lsr 2)) stale

let new_bank shape start terms =
  let runs = runs terms and width = 1 + List.length terms in
  {
    shape;
    sx = start.x;
    sop = start.op;
    ops = Array.of_list (List.map fst runs);
    xs = Array.of_list (List.map (fun (_, run) -> xs run) runs);
    width;
    rows = Gr_util.Vec.create ~capacity:4 ();
    ks = Float.Array.make (4 * width) 0.;
    vals = Float.Array.make 4 0.;
    stamps = [| stale |];
  }

(* The member's row in the group's open bank, or in a new one it opens
   when the shape differs. *)
let join g start terms =
  let shape = List.map (fun t -> (t.x, t.op)) (start :: terms) in
  let b =
    match g.bank with
    | Some b when b.shape = shape -> b
    | _ ->
      let b = new_bank shape start terms in
      g.bank <- Some b;
      b
  in
  let row = { i = Gr_util.Vec.length b.rows; ks = ks (start :: terms) } in
  Gr_util.Vec.push b.rows row;
  if row.i lsr 2 = Array.length b.stamps then begin
    let blocks = 2 * Array.length b.stamps in
    let ks = Float.Array.make (blocks * 4 * b.width) 0. in
    Float.Array.blit b.ks 0 ks 0 (Float.Array.length b.ks);
    b.ks <- ks;
    b.vals <- Float.Array.make (4 * blocks) 0.;
    b.stamps <- Array.make blocks stale
  end;
  relayout b ~from:row.i;
  (b, row)

(* A member's step: its row's value, its block filled first when stale. *)
let banked g (b, row) dst =
  let step () =
    let r = row.i in
    let blk = r lsr 2 in
    if Array.unsafe_get b.stamps blk <> g.epoch then fill g b blk;
    set g dst (Float.Array.unsafe_get b.vals r)
  in
  step

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
     chain's value. The first chain over input cells alone joins a
     bank; the others, and every chain when there is none, run on
     their own. *)
  let is_input c = List.exists (fun x -> x.at = c) !reads in
  let row = ref None in
  let finish = function
    | Pmul { dst; x; k; swap = false } -> binop_rc g Mul (reg dst) (reg x) k
    | Pmul { dst; x; k; swap = true } -> binop_cr g Mul (reg dst) k (reg x)
    | Pchain
        { dst; start = { k = 1.; x = a; op = 0 }; terms = [ { k = 1.; x = b; op = (0 | 1) as op } ] }
      ->
      binop_rr g (if op = 0 then Add else Sub) (reg dst) a b
    | Pchain { dst; start; terms } ->
      let terms = List.rev terms in
      if Option.is_none !row && List.for_all (fun t -> is_input t.x) (start :: terms) then begin
        row := Some (join g start terms);
        banked g (Option.get !row) (reg dst)
      end
      else chain g (reg dst) start terms
    | Pop f -> f
  in
  let steps = Array.of_list (List.map finish (List.rev !steps)) in
  if Option.is_none !row then g.bank <- None;
  let result = reg p.result in
  {
    group = g;
    reads = Array.of_list (List.rev !reads);
    loads = Array.of_list !loads;
    aggs = Array.of_list (List.rev !aggs);
    cells = !cells;
    steps;
    row = !row;
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
    g.free <- List.rev_append j.cells g.free;
    Option.iter
      (fun (b, row) ->
        Gr_util.Vec.filter_in_place (fun r -> r != row) b.rows;
        relayout b ~from:row.i)
      j.row
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
