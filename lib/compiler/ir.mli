(** Register-based intermediate representation for guardrail monitors.

    Rules and SAVE values compile to straight-line, loop-free programs
    over an infinite virtual register file of floats (booleans are
    0/1). Straight-line by construction means termination is a
    syntactic property — the monitor analogue of the eBPF verifier's
    no-backward-jumps rule — and single assignment in instruction
    order makes defined-before-use a one-pass check ({!Verify}).

    Feature-store keys are resolved to integer {e slots} into the
    enclosing monitor's slot table, so the runtime never hashes
    strings on the hot path. *)

type slot = int
(** Index into the monitor's slot table. *)

type inst =
  | Const of { dst : int; value : float }
  | Load of { dst : int; slot : slot }
      (** Latest value of a key; 0 when the key has never been saved. *)
  | Agg of { dst : int; fn : Gr_dsl.Ast.agg; slot : slot; window_ns : float; param : float }
      (** Windowed aggregate over a key's timestamped samples.
          [param] is QUANTILE's q; 0 for other functions. *)
  | Unop of { dst : int; op : Gr_dsl.Ast.unop; src : int }
  | Binop of { dst : int; op : Gr_dsl.Ast.binop; lhs : int; rhs : int }

type program = {
  insts : inst array;
  result : int;  (** register holding the program's value *)
  n_regs : int;
  srcmap : Gr_dsl.Ast.pos array;
      (** Source position of each instruction, parallel to [insts].
          Either the same length as [insts] (programs lowered from
          source) or empty (programs built programmatically); the
          optimiser keeps it aligned through CSE/DCE. *)
}

(** {1 Operator semantics}

    Defined once here for every executor: the reference interpreter
    ({!Gr_runtime.Vm.run}), the JIT's constant folding and the model
    checker's concrete witness evaluation. Booleans are 0/1, any
    non-zero value (NaN and ±∞ included) is truthy, and division by
    zero yields 0, so a program cannot trap. *)

val truthy : float -> bool

val of_bool : bool -> float
(** 1. for [true], 0. for [false]. *)

val apply_unop : Gr_dsl.Ast.unop -> float -> float
val apply_binop : Gr_dsl.Ast.binop -> float -> float -> float

val pos_of : program -> int -> Gr_dsl.Ast.pos option
(** Source position of instruction [i], when the program carries a
    source map. *)

val inst_cost_ns : inst -> float
(** Static cost model: rough nanoseconds per instruction on the
    simulated in-kernel interpreter. This table is the single source
    of truth — the runtime ({!Gr_runtime.Vm.static_cost_ns}), the
    verifier's stats and the lint cost-budget analysis all charge
    from it. Aggregates are O(1) amortized since the feature store
    streams registered demands; only QUANTILE still pays a ranked
    suffix scan surcharge. *)

val static_cost_ns : program -> float
(** Sum of {!inst_cost_ns} over the program — the per-check cost
    excluding data-dependent sample expiry. *)

val dst : inst -> int
val operands : inst -> int list

val use_counts : program -> int array
(** Reader count per register (the program result counts as one use).
    The execution-tier specializers fuse away an intermediate register
    only when its count is exactly 1. *)


val with_dst : inst -> int -> inst
val map_operands : inst -> (int -> int) -> inst

val read_slots : program -> slot list
(** Sorted, deduplicated slots the program reads (Load or Agg). *)

val pp_inst : slots:string array -> Format.formatter -> inst -> unit
val pp_program : slots:string array -> Format.formatter -> program -> unit
(** Human-readable disassembly, used by the [grc] CLI. *)
