module Ir = Gr_compiler.Ir

type result = {
  value : float;
  insts_executed : int;
  samples_scanned : int;
  est_cost_ns : float;
}

type out = { mutable value : float; mutable cost_ns : float }
type tier = Tree | Jit

let tier_of_string = function "tree" -> Some Tree | "jit" -> Some Jit | _ -> None
let tier_to_string = function Tree -> "tree" | Jit -> "jit"
let all_tiers = [ Tree; Jit ]
let truthy v = v <> 0.
let of_bool b = if b then 1. else 0.

let sample_scan_cost_ns = 0.5

let static_cost_ns = Ir.static_cost_ns

(* The JIT's operator semantics for compile-time folding; must stay
   in exact (bit-for-bit) agreement with the inline matches in [run]
   below — the cross-tier differential fuzzer in test/test_fuzz.ml
   pins that equivalence. *)
let apply_unop op v =
  match (op : Gr_dsl.Ast.unop) with
  | Neg -> -.v
  | Abs -> Float.abs v
  | Not -> of_bool (not (truthy v))

let apply_binop op a b =
  match (op : Gr_dsl.Ast.binop) with
  | Add -> a +. b
  | Sub -> a -. b
  | Mul -> a *. b
  | Div -> if b = 0. then 0. else a /. b
  | Lt -> of_bool (a < b)
  | Le -> of_bool (a <= b)
  | Gt -> of_bool (a > b)
  | Ge -> of_bool (a >= b)
  | Eq -> of_bool (a = b)
  | Ne -> of_bool (a <> b)
  | And -> of_bool (truthy a && truthy b)
  | Or -> of_bool (truthy a || truthy b)

let run ?static_cost_ns:precomputed ~store ~slots (p : Ir.program) =
  let regs = Array.make (max 1 p.n_regs) 0. in
  let samples = ref 0 in
  (* The per-instruction cost model is a pure function of the program;
     callers that run the same program repeatedly pass the sum
     computed once at install time instead of re-summing per check. *)
  let cost =
    ref (match precomputed with Some c -> c | None -> static_cost_ns p)
  in
  Array.iter
    (fun inst ->
      match inst with
      | Ir.Const { dst; value } -> regs.(dst) <- value
      | Ir.Load { dst; slot } -> regs.(dst) <- Feature_store.load store slots.(slot)
      | Ir.Agg { dst; fn; slot; window_ns; param } ->
        let key = slots.(slot) in
        let r = Feature_store.aggregate_result store ~key ~fn ~window_ns ~param in
        (* Naive scans charge the whole window population; a
           registered-demand hit charges only the samples it expired
           now (plus QUANTILE's ranked suffix) — O(1) amortized. *)
        samples := !samples + r.scanned;
        cost := !cost +. (float_of_int r.scanned *. sample_scan_cost_ns);
        regs.(dst) <- r.value
      | Ir.Unop { dst; op; src } ->
        regs.(dst) <-
          (match op with
          | Gr_dsl.Ast.Neg -> -.regs.(src)
          | Gr_dsl.Ast.Abs -> Float.abs regs.(src)
          | Gr_dsl.Ast.Not -> of_bool (not (truthy regs.(src))))
      | Ir.Binop { dst; op; lhs; rhs } ->
        let a = regs.(lhs) and b = regs.(rhs) in
        regs.(dst) <-
          (match op with
          | Gr_dsl.Ast.Add -> a +. b
          | Gr_dsl.Ast.Sub -> a -. b
          | Gr_dsl.Ast.Mul -> a *. b
          | Gr_dsl.Ast.Div -> if b = 0. then 0. else a /. b
          | Gr_dsl.Ast.Lt -> of_bool (a < b)
          | Gr_dsl.Ast.Le -> of_bool (a <= b)
          | Gr_dsl.Ast.Gt -> of_bool (a > b)
          | Gr_dsl.Ast.Ge -> of_bool (a >= b)
          | Gr_dsl.Ast.Eq -> of_bool (a = b)
          | Gr_dsl.Ast.Ne -> of_bool (a <> b)
          | Gr_dsl.Ast.And -> of_bool (truthy a && truthy b)
          | Gr_dsl.Ast.Or -> of_bool (truthy a || truthy b)))
    p.insts;
  {
    value = regs.(p.result);
    insts_executed = Array.length p.insts;
    samples_scanned = !samples;
    est_cost_ns = !cost;
  }
