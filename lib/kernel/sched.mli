(** CPU scheduler with pluggable time-slice and load-balancing
    policies.

    Weighted-fair (CFS-like) per-CPU runqueues: on each CPU the
    runnable task with the smallest virtual runtime is dispatched
    next, with its slice length coming from the slice policy slot —
    the attachment point for a learned scheduler. A misbehaving
    learned policy (e.g. one that hands out enormous slices to a
    favoured class) starves other tasks; the P6 liveness guardrail
    monitors exactly that, and the DEPRIORITIZE action (A4) lands
    here via {!deprioritize_class} / {!kill_class}.

    With [cpus > 1], tasks are pinned to the runqueue the balancer
    slot chose at spawn and there is deliberately no work stealing —
    so a skewed balancer reproduces the "cores may idle when ready
    tasks are still in the runqueue" failure the paper's introduction
    cites (the Decade of Wasted Cores bug class). {!wasted_cores}
    exposes the instantaneous signal; {!rebalance} is the corrective
    a guardrail can trigger.

    Hook points fired:
    - ["sched:dispatch"]      — [tid], [cpu], [slice_us], [wait_ms]
    - ["sched:task_complete"] — [tid], [turnaround_ms]
    - ["sched:starvation"]    — [max_wait_ms] (on every dispatch)
    - ["sched:wasted_core"]   — [cpu], [wasted] (a CPU went idle
                                while ready tasks wait elsewhere) *)

type task_state = Runnable | Running | Complete | Killed

type task = private {
  tid : int;
  task_name : string;
  cls : string;  (** scheduling class, the DEPRIORITIZE target *)
  mutable weight : int;
  demand : Gr_util.Time_ns.t;  (** total CPU time wanted *)
  mutable received : Gr_util.Time_ns.t;
  mutable vruntime : float;
  mutable state : task_state;
  mutable ready_since : Gr_util.Time_ns.t;
  mutable max_wait : Gr_util.Time_ns.t;
  mutable total_wait : Gr_util.Time_ns.t;
  mutable dispatches : int;
  mutable cpu : int;  (** runqueue this task is pinned to *)
  arrived : Gr_util.Time_ns.t;
}

type policy = {
  policy_name : string;
  slice : nr_runnable:int -> task_weight:int -> task_received_ms:float -> Gr_util.Time_ns.t;
      (** Slice to grant the chosen task. The scheduler clamps the
          result to [1us, 1s] defensively — illegal outputs beyond
          that are visible to the P3 guardrail via the raw value
          published on the dispatch hook. *)
}

val cfs_policy : policy
(** Default: 24ms scheduling period divided among the runqueue's
    runnable tasks, floored at 1ms. *)

type balancer = {
  balancer_name : string;
  place : queue_lens:int array -> int;
      (** Runqueue for a newly spawned task, given current queue
          lengths (runnable + running). Out-of-range choices are
          clamped. *)
}

val least_loaded : balancer
(** Default: the shortest queue (ties to the lowest CPU). *)

type t

val create : engine:Gr_sim.Engine.t -> hooks:Hooks.t -> ?cpus:int -> unit -> t
(** [cpus] defaults to 1 (a single shared runqueue). *)

val slot : t -> policy Policy_slot.t

val balancer_slot : t -> balancer Policy_slot.t
val cpus : t -> int

val spawn :
  t ->
  name:string ->
  ?cls:string ->
  ?weight:int ->
  demand:Gr_util.Time_ns.t ->
  unit ->
  task
(** Adds a runnable task; starts the dispatch loop if idle.
    [cls] defaults to ["default"], [weight] to 1024. *)

val deprioritize_class : t -> cls:string -> weight:int -> int
(** Sets the weight of every live task in [cls]; returns how many
    tasks were affected. *)

val kill_class : t -> cls:string -> int
(** Kills every live task in [cls]; returns how many were killed. *)

val tasks : t -> task list
(** All tasks ever spawned, in spawn order. *)

val wasted_cores : t -> int
(** CPUs currently idle while at least one ready task waits on some
    runqueue; always 0 on a single-CPU scheduler. *)

val rebalance : t -> int
(** Spreads runnable tasks evenly over the runqueues (running tasks
    stay put); returns how many were migrated. The corrective action
    for a wasted-cores guardrail. *)

val max_wait_ms : t -> float
(** Longest time any currently-ready task has been waiting, in ms —
    the P6 starvation signal. 0. when nothing waits. *)

val received_by_class : t -> (string * float) list
(** Total CPU seconds received per class; input to Jain's index. *)
