module Ir = Gr_compiler.Ir

type result = {
  value : float;
  insts_executed : int;
  samples_scanned : int;
  est_cost_ns : float;
}

type out = Gr_trace.Metrics.check_out = { mutable value : float; mutable cost_ns : float }
type tier = Tree | Jit

let tier_of_string = function "tree" -> Some Tree | "jit" -> Some Jit | _ -> None
let tier_to_string = function Tree -> "tree" | Jit -> "jit"
let all_tiers = [ Tree; Jit ]

let sample_scan_cost_ns = 0.5

let static_cost_ns = Ir.static_cost_ns

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
      | Ir.Unop { dst; op; src } -> regs.(dst) <- Ir.apply_unop op regs.(src)
      | Ir.Binop { dst; op; lhs; rhs } -> regs.(dst) <- Ir.apply_binop op regs.(lhs) regs.(rhs))
    p.insts;
  {
    value = regs.(p.result);
    insts_executed = Array.length p.insts;
    samples_scanned = !samples;
    est_cost_ns = !cost;
  }
