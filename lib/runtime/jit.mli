(** Closure template JIT — the fast execution tier.

    At install time, {!member} specializes a verified program into a
    run of closures over a frame it shares with its {e trigger group}:
    constants folded at compile time, operators and constant operands
    baked into each closure's environment, and each [acc ± k·r] chain —
    a linear form — fused into a single step. A check is then a
    straight run of indirect jumps — no per-check dispatch, operand
    decoding or frame allocation. Consecutive members whose linear
    forms read the same inputs with the same operators share a
    {e linear bank}, which computes four members' forms in one pass
    per frame epoch.

    A group is what one trigger runs: the engine puts every JIT monitor
    armed on one FUNCTION hook or ON_CHANGE key into one group, and a
    program compiled on its own ({!compile}) is a group of one. The
    group's prologue is the union of its members' LOAD and AGG reads,
    duplicates removed, each through a {!Feature_store} handle resolved
    once: an input is read at most once per frame epoch, by the first
    member that needs it, into a frame cell every member reads. Store
    counters and trace instants stay {e logical}: each member counts
    its own reads, and an aggregate's scanned samples are charged to
    its first reader after each physical read, as the interpreter
    charges them.

    Results are bit-identical to {!Vm.run} on the same store state
    (same value, accounting, store counters and trace instants); the
    cross-tier differential rigs in test/test_fuzz.ml pin this, for
    lone programs and for groups. *)

type group

val group : Feature_store.t -> group
(** An empty group reading from the store. *)

val invalidate : group -> unit
(** Starts a new frame epoch: every input is read again by the next
    member that needs it. Call it whenever the store may have changed
    since the group last ran — at every dispatch, and after any action
    a member fires. *)

type t

val member : group -> slots:string array -> Gr_compiler.Ir.program -> t
(** Compiles a program into the group. Its reads join the prologue,
    sharing the inputs other members already read, and its first
    linear form over inputs alone joins the bank of the member
    compiled before it when the two have one shape. Costs the
    program's own reads; no other member is recompiled. Precondition: the program
    passed {!Gr_compiler.Verify.verify} against these slots. *)

val compile : store:Feature_store.t -> slots:string array -> Gr_compiler.Ir.program -> t
(** [member (group store)]: a program in a group of its own. *)

val leave : t -> unit
(** Takes the program out of its group: its bank row goes, and an
    input no remaining member reads is dropped and never read again. Idempotent; the program
    must not run afterwards. *)

val exec : t -> unit
(** One check against the group's current epoch: reads the inputs the
    program needs that are not yet read in it, counts the program's
    logical reads, runs the body, and leaves the result in {!out} and
    {!samples}. Allocates nothing unless it reads an aggregate
    physically or tracing is on. Not reentrant: the program owns its
    frame cells. *)

val out : t -> Vm.out
(** The last {!exec}'s value and estimated cost. *)

val samples : t -> int
(** The last {!exec}'s scanned samples. *)

val insts : t -> int
(** The original program's instruction count, which every check
    reports. *)

val run : t -> Vm.result
(** {!invalidate}s the program's group, then {!exec}s it, as a fresh
    result. *)
