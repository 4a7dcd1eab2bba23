module Ir = Gr_compiler.Ir

(* ---------- closure template JIT (tier 2) ----------

   [compile] specializes a verified program at install time into a
   flat array of effect closures: a check is one tight loop of
   indirect calls with no per-check dispatch, no operand decoding and
   no register-frame allocation.

   Specializations applied, in order:
   - constants are folded: a Const never executes at check time, and
     any Unop/Binop whose inputs are all known folds at compile time
     (via Vm.apply_unop/apply_binop, so folded arithmetic is
     bit-identical to the interpreted kind);
   - feature-store reads go through pre-resolved handles
     (Feature_store.load_handle / agg_handle): key hashing and demand
     list walks happen once here, not per check — store routing is
     fixed before install, so a handle pins the entries of every
     member its key reads (one for a local key, the tier and each
     shard for a fleet-merged one) and folds them on each read; a
     released demand is refound and force_naive takes the naive scan,
     so every program compiles;
   - each remaining instruction becomes a closure from a hand-written
     template library, operator and constant operands baked into the
     closure environment (36 binop shapes: op x {reg·reg, reg·const,
     const·reg});
   - superinstructions: a Load/Agg whose only reader is the next
     emitted step fuses into it. Any binop against a constant fuses
     with the pending load/agg (load-cmp/agg-cmp over all twelve
     operators), a pending load·k product fuses into the Add/Sub
     that consumes it (multiply-accumulate — the inner-loop shape of
     a distilled linear-model guardrail, one closure per term instead
     of three), and two pending products
     fuse into their Add/Sub in one step. All arithmetic inside a
     fused body stays unboxed — OCaml only boxes floats that cross a
     closure boundary, which is exactly what fusion eliminates.

   Accounting stays tier-invariant: [insts_executed] reports the
   original instruction count, the static cost is the original
   program's, and aggregate steps charge scanned samples in program
   order, so results are bit-identical to Vm.run. Fusion claims only
   the most recently emitted step(s), and only when the fusing
   instruction is their sole reader: claiming farther back could
   reorder an aggregate's scanned-sample charge past another charging
   step. A fused load still executes exactly once, even where the
   operator's result is known (x/0, AND 0, OR 1): the store's load
   counter must advance exactly as the interpreter advances it.

   Frame accesses are unsafe_get/set: every register index was bounds-
   checked by Gr_compiler.Verify before install, the same trust
   boundary the interpreter relies on. *)

type t = {
  j_frame : float array;
  j_steps : (unit -> unit) array;
  j_result : int;
  j_n_insts : int;
  j_static_cost : float;
  j_samples : int ref;
  j_cost : float ref;
}

let of_bool = Vm.of_bool

(* One template per binop shape. [cc] (const·const) never reaches the
   emitters — it folds. *)
let binop_rr frame op dst lhs rhs =
  let g = Array.unsafe_get frame and s = Array.unsafe_set frame in
  match (op : Gr_dsl.Ast.binop) with
  | Add -> fun () -> s dst (g lhs +. g rhs)
  | Sub -> fun () -> s dst (g lhs -. g rhs)
  | Mul -> fun () -> s dst (g lhs *. g rhs)
  | Div ->
    fun () ->
      let b = g rhs in
      s dst (if b = 0. then 0. else g lhs /. b)
  | Lt -> fun () -> s dst (of_bool (g lhs < g rhs))
  | Le -> fun () -> s dst (of_bool (g lhs <= g rhs))
  | Gt -> fun () -> s dst (of_bool (g lhs > g rhs))
  | Ge -> fun () -> s dst (of_bool (g lhs >= g rhs))
  | Eq -> fun () -> s dst (of_bool (g lhs = g rhs))
  | Ne -> fun () -> s dst (of_bool (g lhs <> g rhs))
  | And -> fun () -> s dst (of_bool (g lhs <> 0. && g rhs <> 0.))
  | Or -> fun () -> s dst (of_bool (g lhs <> 0. || g rhs <> 0.))

let binop_rc frame op dst lhs k =
  let g = Array.unsafe_get frame and s = Array.unsafe_set frame in
  match (op : Gr_dsl.Ast.binop) with
  | Add -> fun () -> s dst (g lhs +. k)
  | Sub -> fun () -> s dst (g lhs -. k)
  | Mul -> fun () -> s dst (g lhs *. k)
  | Div -> if k = 0. then fun () -> s dst 0. else fun () -> s dst (g lhs /. k)
  | Lt -> fun () -> s dst (of_bool (g lhs < k))
  | Le -> fun () -> s dst (of_bool (g lhs <= k))
  | Gt -> fun () -> s dst (of_bool (g lhs > k))
  | Ge -> fun () -> s dst (of_bool (g lhs >= k))
  | Eq -> fun () -> s dst (of_bool (g lhs = k))
  | Ne -> fun () -> s dst (of_bool (g lhs <> k))
  | And -> if k = 0. then fun () -> s dst 0. else fun () -> s dst (of_bool (g lhs <> 0.))
  | Or -> if k <> 0. then fun () -> s dst 1. else fun () -> s dst (of_bool (g lhs <> 0.))

let binop_cr frame op dst k rhs =
  let g = Array.unsafe_get frame and s = Array.unsafe_set frame in
  match (op : Gr_dsl.Ast.binop) with
  | Add -> fun () -> s dst (k +. g rhs)
  | Sub -> fun () -> s dst (k -. g rhs)
  | Mul -> fun () -> s dst (k *. g rhs)
  | Div ->
    fun () ->
      let b = g rhs in
      s dst (if b = 0. then 0. else k /. b)
  | Lt -> fun () -> s dst (of_bool (k < g rhs))
  | Le -> fun () -> s dst (of_bool (k <= g rhs))
  | Gt -> fun () -> s dst (of_bool (k > g rhs))
  | Ge -> fun () -> s dst (of_bool (k >= g rhs))
  | Eq -> fun () -> s dst (of_bool (k = g rhs))
  | Ne -> fun () -> s dst (of_bool (k <> g rhs))
  | And -> if k = 0. then fun () -> s dst 0. else fun () -> s dst (of_bool (g rhs <> 0.))
  | Or -> if k <> 0. then fun () -> s dst 1. else fun () -> s dst (of_bool (g rhs <> 0.))

(* Fused load⊙const, constant on the right: dst <- load(h) op k. *)
let load_vc frame h op dst k =
  let s = Array.unsafe_set frame in
  let ld = Feature_store.handle_load in
  match (op : Gr_dsl.Ast.binop) with
  | Add -> fun () -> s dst (ld h +. k)
  | Sub -> fun () -> s dst (ld h -. k)
  | Mul -> fun () -> s dst (ld h *. k)
  | Div ->
    if k = 0. then fun () ->
      ignore (ld h : float);
      s dst 0.
    else fun () -> s dst (ld h /. k)
  | Lt -> fun () -> s dst (of_bool (ld h < k))
  | Le -> fun () -> s dst (of_bool (ld h <= k))
  | Gt -> fun () -> s dst (of_bool (ld h > k))
  | Ge -> fun () -> s dst (of_bool (ld h >= k))
  | Eq -> fun () -> s dst (of_bool (ld h = k))
  | Ne -> fun () -> s dst (of_bool (ld h <> k))
  | And ->
    if k = 0. then fun () ->
      ignore (ld h : float);
      s dst 0.
    else fun () -> s dst (of_bool (ld h <> 0.))
  | Or ->
    if k <> 0. then fun () ->
      ignore (ld h : float);
      s dst 1.
    else fun () -> s dst (of_bool (ld h <> 0.))

(* Fused const⊙load, constant on the left: dst <- k op load(h). *)
let load_cv frame h op dst k =
  let s = Array.unsafe_set frame in
  let ld = Feature_store.handle_load in
  match (op : Gr_dsl.Ast.binop) with
  | Add -> fun () -> s dst (k +. ld h)
  | Sub -> fun () -> s dst (k -. ld h)
  | Mul -> fun () -> s dst (k *. ld h)
  | Div ->
    fun () ->
      let v = ld h in
      s dst (if v = 0. then 0. else k /. v)
  | Lt -> fun () -> s dst (of_bool (k < ld h))
  | Le -> fun () -> s dst (of_bool (k <= ld h))
  | Gt -> fun () -> s dst (of_bool (k > ld h))
  | Ge -> fun () -> s dst (of_bool (k >= ld h))
  | Eq -> fun () -> s dst (of_bool (k = ld h))
  | Ne -> fun () -> s dst (of_bool (k <> ld h))
  | And ->
    if k = 0. then fun () ->
      ignore (ld h : float);
      s dst 0.
    else fun () -> s dst (of_bool (ld h <> 0.))
  | Or ->
    if k <> 0. then fun () ->
      ignore (ld h : float);
      s dst 1.
    else fun () -> s dst (of_bool (ld h <> 0.))

(* A step under construction: its own effect plus which frame register
   it defines, so a following single-reader instruction can claim it.
   [Pmul] is a load·const product awaiting a multiply-accumulate
   consumer ([swap]: the constant was the left factor). *)
type pending =
  | Pload of { dst : int; h : Feature_store.load_handle }
  | Pagg of { dst : int; h : Feature_store.agg_handle }
  | Pmul of { dst : int; h : Feature_store.load_handle; k : float; swap : bool }
  | Pop of (unit -> unit)

let compile ~store ~slots (p : Ir.program) =
  let n = max 1 p.n_regs in
  let frame = Array.make n 0. in
  let const = Array.make n None in
  let uses = Ir.use_counts p in
  let samples = ref 0 in
  let cost = ref 0. in
  let charge scanned =
    samples := !samples + scanned;
    cost := !cost +. (float_of_int scanned *. Vm.sample_scan_cost_ns)
  in
  (* the charged value of a pending aggregate — its own step and every
     fused form run exactly this *)
  let agg_value h () =
    let r = Feature_store.handle_aggregate h in
    charge r.Feature_store.scanned;
    r.Feature_store.value
  in
  let agg_vc h op dst k =
    let s = Array.unsafe_set frame in
    let va = agg_value h in
    match (op : Gr_dsl.Ast.binop) with
    | Add -> Pop (fun () -> s dst (va () +. k))
    | Sub -> Pop (fun () -> s dst (va () -. k))
    | Mul -> Pop (fun () -> s dst (va () *. k))
    | Div ->
      if k = 0. then
        Pop
          (fun () ->
            ignore (va () : float);
            s dst 0.)
      else Pop (fun () -> s dst (va () /. k))
    | Lt -> Pop (fun () -> s dst (of_bool (va () < k)))
    | Le -> Pop (fun () -> s dst (of_bool (va () <= k)))
    | Gt -> Pop (fun () -> s dst (of_bool (va () > k)))
    | Ge -> Pop (fun () -> s dst (of_bool (va () >= k)))
    | Eq -> Pop (fun () -> s dst (of_bool (va () = k)))
    | Ne -> Pop (fun () -> s dst (of_bool (va () <> k)))
    | And ->
      if k = 0. then
        Pop
          (fun () ->
            ignore (va () : float);
            s dst 0.)
      else Pop (fun () -> s dst (of_bool (va () <> 0.)))
    | Or ->
      if k <> 0. then
        Pop
          (fun () ->
            ignore (va () : float);
            s dst 1.)
      else Pop (fun () -> s dst (of_bool (va () <> 0.)))
  in
  let agg_cv h op dst k =
    let s = Array.unsafe_set frame in
    let va = agg_value h in
    match (op : Gr_dsl.Ast.binop) with
    | Add -> Pop (fun () -> s dst (k +. va ()))
    | Sub -> Pop (fun () -> s dst (k -. va ()))
    | Mul -> Pop (fun () -> s dst (k *. va ()))
    | Div ->
      Pop
        (fun () ->
          let v = va () in
          s dst (if v = 0. then 0. else k /. v))
    | Lt -> Pop (fun () -> s dst (of_bool (k < va ())))
    | Le -> Pop (fun () -> s dst (of_bool (k <= va ())))
    | Gt -> Pop (fun () -> s dst (of_bool (k > va ())))
    | Ge -> Pop (fun () -> s dst (of_bool (k >= va ())))
    | Eq -> Pop (fun () -> s dst (of_bool (k = va ())))
    | Ne -> Pop (fun () -> s dst (of_bool (k <> va ())))
    | And ->
      if k = 0. then
        Pop
          (fun () ->
            ignore (va () : float);
            s dst 0.)
      else Pop (fun () -> s dst (of_bool (va () <> 0.)))
    | Or ->
      if k <> 0. then
        Pop
          (fun () ->
            ignore (va () : float);
            s dst 1.)
      else Pop (fun () -> s dst (of_bool (va () <> 0.)))
  in
  let steps = ref [] in
  let emit s = steps := s :: !steps in
  let compile_inst inst =
    match inst with
    | Ir.Const { dst; value } ->
      frame.(dst) <- value;
      const.(dst) <- Some value
    | Ir.Load { dst; slot } ->
      (* always [Some]: handles are total *)
      emit (Pload { dst; h = Option.get (Feature_store.load_handle store slots.(slot)) })
    | Ir.Agg { dst; fn; slot; window_ns; param } ->
      let h = Feature_store.agg_handle store ~key:slots.(slot) ~fn ~window_ns ~param in
      emit (Pagg { dst; h })
    | Ir.Unop { dst; op; src } -> (
      match const.(src) with
      | Some v ->
        frame.(dst) <- Vm.apply_unop op v;
        const.(dst) <- Some frame.(dst)
      | None ->
        let g = Array.unsafe_get frame and s = Array.unsafe_set frame in
        emit
          (Pop
             (match op with
             | Gr_dsl.Ast.Neg -> fun () -> s dst (-.g src)
             | Gr_dsl.Ast.Abs -> fun () -> s dst (Float.abs (g src))
             | Gr_dsl.Ast.Not -> fun () -> s dst (of_bool (g src = 0.)))))
    | Ir.Binop { dst; op; lhs; rhs } -> (
      match (const.(lhs), const.(rhs)) with
      | Some a, Some b ->
        frame.(dst) <- Vm.apply_binop op a b;
        const.(dst) <- Some frame.(dst)
      | None, Some k -> (
        match !steps with
        | Pload { dst = r; h } :: rest when r = lhs && uses.(r) = 1 ->
          if op = Gr_dsl.Ast.Mul then steps := Pmul { dst; h; k; swap = false } :: rest
          else steps := Pop (load_vc frame h op dst k) :: rest
        | Pagg { dst = r; h } :: rest when r = lhs && uses.(r) = 1 ->
          steps := agg_vc h op dst k :: rest
        | _ -> emit (Pop (binop_rc frame op dst lhs k)))
      | Some k, None -> (
        match !steps with
        | Pload { dst = r; h } :: rest when r = rhs && uses.(r) = 1 ->
          if op = Gr_dsl.Ast.Mul then steps := Pmul { dst; h; k; swap = true } :: rest
          else steps := Pop (load_cv frame h op dst k) :: rest
        | Pagg { dst = r; h } :: rest when r = rhs && uses.(r) = 1 ->
          steps := agg_cv h op dst k :: rest
        | _ -> emit (Pop (binop_cr frame op dst k rhs)))
      | None, None -> (
        let s = Array.unsafe_set frame and g = Array.unsafe_get frame in
        let ld = Feature_store.handle_load in
        match (op, !steps) with
        (* multiply-accumulate: both addends are pending products —
           one step computes term_i + term_{i+1} with two loads *)
        | ( (Gr_dsl.Ast.Add | Gr_dsl.Ast.Sub),
            Pmul { dst = r2; h = h2; k = k2; swap = s2 }
            :: Pmul { dst = r1; h = h1; k = k1; swap = s1 }
            :: rest )
          when r2 = rhs && r1 = lhs && uses.(r2) = 1 && uses.(r1) = 1 ->
          let sub = op = Gr_dsl.Ast.Sub in
          steps :=
            Pop
              (fun () ->
                let v1 = ld h1 in
                let v2 = ld h2 in
                let a = if s1 then k1 *. v1 else v1 *. k1 in
                let b = if s2 then k2 *. v2 else v2 *. k2 in
                s dst (if sub then a -. b else a +. b))
            :: rest
        (* multiply-accumulate: dst <- reg ± load·k — a linear-model
           term folds into its accumulation *)
        | (Gr_dsl.Ast.Add | Gr_dsl.Ast.Sub), Pmul { dst = r; h; k; swap } :: rest
          when r = rhs && uses.(r) = 1 ->
          let sub = op = Gr_dsl.Ast.Sub in
          steps :=
            Pop
              (fun () ->
                let v = ld h in
                let b = if swap then k *. v else v *. k in
                let a = g lhs in
                s dst (if sub then a -. b else a +. b))
            :: rest
        | (Gr_dsl.Ast.Add | Gr_dsl.Ast.Sub), Pmul { dst = r; h; k; swap } :: rest
          when r = lhs && uses.(r) = 1 ->
          let sub = op = Gr_dsl.Ast.Sub in
          steps :=
            Pop
              (fun () ->
                let v = ld h in
                let a = if swap then k *. v else v *. k in
                s dst (if sub then a -. g rhs else a +. g rhs))
            :: rest
        | _ -> emit (Pop (binop_rr frame op dst lhs rhs))))
  in
  let finish (pend : pending) : unit -> unit =
    match pend with
    | Pload { dst; h } ->
      let s = Array.unsafe_set frame in
      fun () -> s dst (Feature_store.handle_load h)
    | Pagg { dst; h } ->
      let s = Array.unsafe_set frame in
      let va = agg_value h in
      fun () -> s dst (va ())
    | Pmul { dst; h; k; swap } ->
      let s = Array.unsafe_set frame in
      if swap then fun () -> s dst (k *. Feature_store.handle_load h)
      else fun () -> s dst (Feature_store.handle_load h *. k)
    | Pop f -> f
  in
  Array.iter compile_inst p.insts;
  {
    j_frame = frame;
    j_steps = Array.of_list (List.rev_map finish !steps);
    j_result = p.result;
    j_n_insts = Array.length p.insts;
    j_static_cost = Ir.static_cost_ns p;
    j_samples = samples;
    j_cost = cost;
  }

let run j =
  j.j_samples := 0;
  j.j_cost := j.j_static_cost;
  let steps = j.j_steps in
  for i = 0 to Array.length steps - 1 do
    (Array.unsafe_get steps i) ()
  done;
  {
    Vm.value = j.j_frame.(j.j_result);
    insts_executed = j.j_n_insts;
    samples_scanned = !(j.j_samples);
    est_cost_ns = !(j.j_cost);
  }
