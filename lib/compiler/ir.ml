module Ast = Gr_dsl.Ast

type slot = int

type inst =
  | Const of { dst : int; value : float }
  | Load of { dst : int; slot : slot }
  | Agg of { dst : int; fn : Ast.agg; slot : slot; window_ns : float; param : float }
  | Unop of { dst : int; op : Ast.unop; src : int }
  | Binop of { dst : int; op : Ast.binop; lhs : int; rhs : int }

type program = {
  insts : inst array;
  result : int;
  n_regs : int;
  srcmap : Ast.pos array;
}

(* Operator semantics: booleans are 0/1, any non-zero value is truthy,
   and division by zero yields 0, so every program is total. *)
let truthy v = v <> 0.
let of_bool b = if b then 1. else 0.

let apply_unop op v =
  match (op : Ast.unop) with
  | Neg -> -.v
  | Abs -> Float.abs v
  | Not -> of_bool (not (truthy v))

let apply_binop op a b =
  match (op : Ast.binop) with
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

let pos_of p i =
  if i >= 0 && i < Array.length p.srcmap then Some p.srcmap.(i) else None

(* Single source of truth for the static per-instruction cost model;
   Vm.static_cost_ns, Verify's stats and gr_analysis all charge from
   here. Streaming demand registration made aggregates O(1) amortized;
   QUANTILE alone still ranks the in-window suffix per call. *)
let inst_cost_ns = function
  | Const _ -> 1.
  | Unop _ | Binop _ -> 2.
  | Load _ -> 6.
  | Agg { fn = Gr_dsl.Ast.Quantile; _ } -> 40.
  | Agg _ -> 8.

let static_cost_ns p = Array.fold_left (fun acc i -> acc +. inst_cost_ns i) 0. p.insts

let dst = function
  | Const { dst; _ } | Load { dst; _ } | Agg { dst; _ } | Unop { dst; _ } | Binop { dst; _ }
    -> dst

let operands = function
  | Const _ | Load _ | Agg _ -> []
  | Unop { src; _ } -> [ src ]
  | Binop { lhs; rhs; _ } -> [ lhs; rhs ]

let with_dst inst dst =
  match inst with
  | Const c -> Const { c with dst }
  | Load l -> Load { l with dst }
  | Agg a -> Agg { a with dst }
  | Unop u -> Unop { u with dst }
  | Binop b -> Binop { b with dst }

(* Per-register reader counts, with the program result counted as one
   extra use — a register with use_counts = 1 feeding the next
   instruction is safe to eliminate by fusion (the install-time
   specializers' superinstruction test). *)
let use_counts p =
  let uses = Array.make (max 1 p.n_regs) 0 in
  Array.iter (fun inst -> List.iter (fun r -> uses.(r) <- uses.(r) + 1) (operands inst)) p.insts;
  uses.(p.result) <- uses.(p.result) + 1;
  uses

let map_operands inst f =
  match inst with
  | Const _ | Load _ | Agg _ -> inst
  | Unop u -> Unop { u with src = f u.src }
  | Binop b -> Binop { b with lhs = f b.lhs; rhs = f b.rhs }

let read_slots program =
  let slots =
    Array.to_list program.insts
    |> List.filter_map (function
         | Load { slot; _ } | Agg { slot; _ } -> Some slot
         | Const _ | Unop _ | Binop _ -> None)
  in
  List.sort_uniq Int.compare slots

let slot_name ~slots slot =
  if slot >= 0 && slot < Array.length slots then slots.(slot)
  else Printf.sprintf "<bad slot %d>" slot

let pp_inst ~slots fmt inst =
  match inst with
  | Const { dst; value } -> Format.fprintf fmt "r%d <- const %g" dst value
  | Load { dst; slot } -> Format.fprintf fmt "r%d <- load %s" dst (slot_name ~slots slot)
  | Agg { dst; fn; slot; window_ns; param } ->
    if fn = Gr_dsl.Ast.Quantile then
      Format.fprintf fmt "r%d <- quantile[q=%g] %s over %gns" dst param
        (slot_name ~slots slot) window_ns
    else
      Format.fprintf fmt "r%d <- %s %s over %gns" dst
        (String.lowercase_ascii (Ast.agg_name fn))
        (slot_name ~slots slot) window_ns
  | Unop { dst; op; src } ->
    Format.fprintf fmt "r%d <- %s r%d" dst (Ast.unop_symbol op) src
  | Binop { dst; op; lhs; rhs } ->
    Format.fprintf fmt "r%d <- r%d %s r%d" dst lhs (Ast.binop_symbol op) rhs

let pp_program ~slots fmt program =
  Array.iter (fun inst -> Format.fprintf fmt "  %a@\n" (pp_inst ~slots) inst) program.insts;
  Format.fprintf fmt "  ret r%d@\n" program.result
