(** Learned task placement (load balancing).

    A small network scores each runqueue from its relative length and
    places new tasks on the best-scoring queue. Trained against the
    least-loaded expert it reproduces sensible placement; its failure
    knob is {!inject_affinity} — a stale "CPU 0 is the fast core"
    prior baked in by training on an asymmetric machine, which after
    a hardware change (all cores equal) turns into the wasted-cores
    pathology of the paper's introduction. *)

type t

val train : rng:Gr_util.Rng.t -> cpus:int -> ?samples:int -> ?epochs:int -> unit -> t

val balancer : t -> Gr_kernel.Sched.balancer
val place : t -> queue_lens:int array -> int
val scorer : t -> Gr_nn.Scorer.t

val score : t -> len:int -> cpu:int -> float
(** The scorer's output on the input vector these arguments fill
    ({!Gr_nn.Scorer.score}). Lower is a better target; {!place}
    subtracts the injected affinity from CPU 0's score. *)

val inject_affinity : t -> strength:float -> unit
(** Adds a bias toward CPU 0 of the given strength (in units of
    queue-length score); [0.] restores the trained model. *)

val retrain : t -> unit
(** Refits against the least-loaded expert and clears the affinity. *)

val retrain_count : t -> int
