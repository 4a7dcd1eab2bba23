(** Fault injection combinators for policies.

    Guardrails exist because learned policies misbehave; the test
    suite and the Figure 1 matrix need misbehaviour on demand. These
    wrappers degrade a working policy from the outside, so every
    experiment can state precisely which failure it injects. *)

val flip_blk_decisions :
  rng:Gr_util.Rng.t -> p:float -> Gr_kernel.Blk.policy -> Gr_kernel.Blk.policy
(** With probability [p] per I/O, replaces the policy's decision with
    the opposite extreme (Trust_primary <-> Revoke_now; Hedge flips
    to Trust_primary). Models random mispredictions. *)

val stuck_blk : Gr_kernel.Blk.decision -> Gr_kernel.Blk.policy
(** Ignores its features entirely and always emits the given
    decision — the degenerate learned policy (a saturated network, a
    constant-output regression) that fault plans install to prove
    REPLACE recovers from it. [Trust_primary] never hedges (false
    submits under a slow device); [Revoke_now] wastes every I/O. *)

val always_promote : Gr_kernel.Mm.policy
(** Degenerate placement policy: promotes every slow access —
    thrashes the fast tier. *)

val never_promote : Gr_kernel.Mm.policy

val wild_slices : rng:Gr_util.Rng.t -> max_ms:int -> Gr_kernel.Sched.policy
(** Slice policy drawing uniformly random slices up to [max_ms] —
    starves under load. *)

val mru_eviction : Gr_kernel.Cache.policy
(** Evicts the most recently used key: pathological for zipfian
    workloads, the quality floor below random. *)
