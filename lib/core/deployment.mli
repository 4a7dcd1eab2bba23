(** A guardrail deployment: one kernel, one feature store, one runtime
    engine, plus the instrumentation glue that connects them.

    This is the high-level entry point a kernel developer uses:

    {[
      let kernel = Gr_kernel.Kernel.create ~seed:42 in
      let d = Deployment.create ~kernel () in
      Deployment.forward_hook_arg d ~hook:"blk:io_complete"
        ~arg:"false_submit" ~key:"false_submit";
      Deployment.derive_window_avg d ~src:"false_submit"
        ~dst:"false_submit_rate" ~window:(Time_ns.sec 10)
        ~every:(Time_ns.ms 100);
      let handles = Deployment.install_source_exn d listing2 in
      ...
    ]}

    Guardrails are installed incrementally (§3.3): each
    [install_source] call adds monitors next to whatever is already
    running; {!feedback_cycles} checks the full installed set for
    feedback loops on demand. *)

type t

val create :
  kernel:Gr_kernel.Kernel.t ->
  ?config:Gr_runtime.Engine.config ->
  ?store_capacity:int ->
  ?tracing:bool ->
  ?trace_capacity:int ->
  ?node_id:int ->
  ?engine:Gr_runtime.Vm.tier ->
  unit ->
  t
(** [tracing] (default [false]) turns the deployment's trace-event
    channel on: sim-event dispatch, hook entry/exit, rule checks,
    action firings and store traffic all land in a bounded
    ring-buffer sink that grows on demand up to [trace_capacity]
    events (default 65536).
    Metrics and the REPORT channel run regardless.

    Creation attaches the deployment's tracer to the kernel's hook
    table and to the sim engine's dispatch channel, which carry one
    tracer each: a kernel hosts one deployment.

    [node_id] tags every trace event, report and metrics export this
    deployment produces with the owning fleet node's id; single-node
    deployments omit it and emit exactly what they always did.

    [engine] picks the default execution tier monitors are
    specialized onto at install (default: the closure template JIT;
    all tiers produce bit-identical results — see {!Gr_runtime.Vm}).

    @raise Invalid_argument if the kernel's hook table already
    carries a tracer (another deployment's). *)

val kernel : t -> Gr_kernel.Kernel.t
val store : t -> Gr_runtime.Feature_store.t
val engine : t -> Gr_runtime.Engine.t

val node_id : t -> int option
(** The fleet node id this deployment was created with, if any. *)

val tracer : t -> Gr_trace.Tracer.t
val metrics : t -> Gr_trace.Metrics.t
(** Per-monitor telemetry (check counts, cumulative VM cost). *)

val write_chrome_trace : t -> path:string -> unit
(** Export everything traced so far (events + reports) as a Chrome
    [trace_event] JSON file; open at [chrome://tracing] or
    {{:https://ui.perfetto.dev}Perfetto}. *)

type error =
  | Compile of Gr_compiler.Compile.error
  | Install of string * string list  (** monitor name, verifier findings *)

val pp_error : Format.formatter -> error -> unit

val install_source : t -> string -> (Gr_runtime.Engine.handle list, error) result
(** Compiles and installs every guardrail in the source text. On
    error nothing from this source stays installed. *)

val install_source_exn : t -> string -> Gr_runtime.Engine.handle list

val install_monitor :
  ?version:int -> t -> Gr_compiler.Monitor.t -> (Gr_runtime.Engine.handle, error) result
(** [version] stamps the monitor with the spec version it came from
    (see {!Gr_runtime.Engine.install}). *)

val install_monitors :
  ?version:int ->
  t ->
  Gr_compiler.Monitor.t list ->
  (Gr_runtime.Engine.handle list, error) result
(** Installs an already-compiled monitor set atomically: on any
    failure everything from this set is uninstalled again (demand
    refcounts released) before the error returns. The versioned
    lifecycle installs each spec version through this, next to
    whatever other versions are still running. *)

val installed_monitors : t -> Gr_compiler.Monitor.t list

val uninstall : t -> Gr_runtime.Engine.handle -> unit
(** Disarms the monitor and removes it from {!installed_monitors};
    paired with {!install_source} this is runtime guardrail
    replacement without a reboot (§6). *)

val feedback_cycles : t -> string list list
(** Feedback-loop (SAVE/LOAD) cycles across everything installed,
    computed on each call; §6's oscillation hazard, statically. *)

(** {1 Instrumentation glue}

    Monitors only see the feature store; these helpers pump kernel
    signals into it. *)

val save : t -> string -> float -> unit

val forward_hook_arg : t -> hook:string -> arg:string -> ?key:string -> unit -> unit
(** Every time [hook] fires, saves its [arg] scalar under [key]
    (default: the arg name). Missing args are ignored. *)

val derive_window_avg :
  t ->
  src:string ->
  dst:string ->
  window:Gr_util.Time_ns.t ->
  every:Gr_util.Time_ns.t ->
  unit
(** Periodically saves the windowed average of [src] as [dst] — e.g.
    deriving [false_submit_rate] from per-I/O [false_submit] markers,
    the paper's Listing 2 setup. *)

val derive_periodic : t -> key:string -> every:Gr_util.Time_ns.t -> (unit -> float) -> unit
(** Periodically samples an arbitrary kernel metric into the store
    (e.g. the scheduler's max runnable wait). *)

val bind_control_key : t -> key:string -> (float -> unit) -> unit
(** Invokes the callback whenever [key] is saved — how a policy
    watches a control key like [ml_enabled] that a SAVE action
    flips. The callback also runs immediately if the key already has
    a sample ({!Gr_runtime.Feature_store.mem}); a registered demand
    alone does not count. *)

val wire_scheduler : t -> Gr_kernel.Sched.t -> unit
(** Routes DEPRIORITIZE/KILL actions to the scheduler and samples
    starvation/fairness/utilisation metrics ([sched_max_wait_ms],
    [sched_jain], [sched_wasted_cores]) every 10ms. *)
