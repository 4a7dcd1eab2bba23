type pos = { line : int; col : int }

let pp_pos fmt { line; col } = Format.fprintf fmt "line %d, column %d" line col

type 'a located = { node : 'a; pos : pos }

let at pos node = { node; pos }

type unop = Neg | Not | Abs

type binop = Add | Sub | Mul | Div | Lt | Le | Gt | Ge | Eq | Ne | And | Or

type agg = Avg | Rate | Count | Sum | Min | Max | Stddev | Quantile | Delta

type expr =
  | Number of float
  | Bool of bool
  | Load of string
  | Unop of unop * expr located
  | Binop of binop * expr located * expr located
  | Agg of agg_call

and agg_call = {
  fn : agg;
  key : string;
  window : expr located;
  param : expr located option;
}

type trigger =
  | Timer of { start : expr located; interval : expr located; stop : expr located option }
  | Function of string
  | On_change of string

type action =
  | Report of { message : string; keys : string list }
  | Replace of string
  | Restore of string
  | Retrain of string
  | Deprioritize of { cls : string; weight : expr located }
  | Kill of string
  | Save of { key : string; value : expr located }

type guardrail = {
  name : string;
  pos : pos;  (* position of the "guardrail" keyword *)
  triggers : trigger located list;
  rules : expr located list;
  actions : action located list;
}

type spec = guardrail list

(* Scoped feature-store keys. A plain key names node-local state; the
   GLOBAL(key) qualifier names the fleet-wide tier. The AST carries the
   canonical encoded form — "global::" ^ name — so every downstream
   consumer (slot tables, dependency analysis, lint, the store itself)
   distinguishes scopes by ordinary string identity. *)
let global_prefix = "global::"

let global_key name = global_prefix ^ name

let is_global_key key = String.starts_with ~prefix:global_prefix key

let local_name key =
  if is_global_key key then
    String.sub key (String.length global_prefix)
      (String.length key - String.length global_prefix)
  else key

(* Node-qualified display form used when several nodes' monitors are
   analysed together: "node3::key". Global keys are never qualified —
   they name one fleet-wide cell whichever node touches them. *)
let node_key node_id key =
  if is_global_key key then key else Printf.sprintf "node%d::%s" node_id key

let unop_symbol = function Neg -> "-" | Not -> "!" | Abs -> "ABS"

let binop_symbol = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="
  | Eq -> "=="
  | Ne -> "!="
  | And -> "&&"
  | Or -> "||"

let agg_name = function
  | Avg -> "AVG"
  | Rate -> "RATE"
  | Count -> "COUNT"
  | Sum -> "SUM"
  | Min -> "MIN"
  | Max -> "MAX"
  | Stddev -> "STDDEV"
  | Quantile -> "QUANTILE"
  | Delta -> "DELTA"
