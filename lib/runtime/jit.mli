(** Closure template JIT — the fast execution tier.

    At install time, {!compile} specializes a verified program into a
    chain of closures threaded by tail calls: constants folded at
    compile time, feature-store reads pre-resolved to
    {!Feature_store.load_handle}/{!Feature_store.agg_handle},
    operators and constant operands baked into each closure's
    environment, and load/agg-vs-constant comparisons fused into
    single steps. A check is then a straight run of indirect jumps —
    no per-check dispatch, operand decoding or frame allocation.

    Results are bit-identical to {!Vm.run} on the same store state
    (same value, accounting, store counters and trace instants); the
    cross-tier differential rig in test/test_fuzz.ml pins this. *)

type t

val compile : store:Feature_store.t -> slots:string array -> Gr_compiler.Ir.program -> t
(** Compiles every verified program. Every store read, of a local or
    a fleet-merged key alike, goes through a handle resolved here.
    Precondition: the program passed {!Gr_compiler.Verify.verify}
    against these slots. *)

val run : t -> Vm.result
(** Not reentrant: a compiled program owns its register frame. *)
