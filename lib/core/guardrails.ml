(** Guardrails for the OS — public API.

    Reproduction of "How I learned to stop worrying and love learned
    OS policies" (HotOS '25). The framework lets kernel developers
    declaratively specify system-level properties over learned
    policies and corrective actions for violations; specifications
    compile into verified monitors that run inside the (simulated)
    kernel.

    Layering, bottom to top:
    - {!Util}, {!Sim}: deterministic PRNG/statistics and the
      discrete-event engine.
    - {!Kernel} and friends: the simulated kernel — hooks, policy
      slots, SSD/block/scheduler/memory/cache subsystems.
    - {!Nn}, policies ({!Gr_policy}): the learned policies under
      guardrail and their hand-coded fallbacks.
    - {!Ast} .. {!Compile}: the guardrail language and compiler.
    - {!Store}, {!Vm}, {!Engine}: the in-kernel runtime.
    - {!Deployment}: one-stop wiring of all of the above. *)

(* Language *)
module Ast = Gr_dsl.Ast
module Lexer = Gr_dsl.Lexer
module Parser = Gr_dsl.Parser
module Typecheck = Gr_dsl.Typecheck
module Pretty = Gr_dsl.Pretty

(* Compiler *)
module Ir = Gr_compiler.Ir
module Lower = Gr_compiler.Lower
module Opt = Gr_compiler.Opt
module Monitor = Gr_compiler.Monitor
module Verify = Gr_compiler.Verify
module Deps = Gr_compiler.Deps
module Compile = Gr_compiler.Compile
module Cgen = Gr_compiler.Cgen

(* Static analysis (grc lint / grc verify) *)
module Interval = Gr_analysis.Interval
module Diagnostic = Gr_analysis.Diagnostic
module Analyze = Gr_analysis.Analyze
module Dataflow = Gr_analysis.Dataflow
module Machine = Gr_analysis.Machine
module Race = Gr_analysis.Race
module Audit = Gr_analysis.Audit

(* Runtime *)
module Store = Gr_runtime.Feature_store
module Vm = Gr_runtime.Vm
module Jit = Gr_runtime.Jit
module Engine = Gr_runtime.Engine

(* Observability *)
module Trace = Gr_trace.Tracer
module Trace_event = Gr_trace.Event
module Trace_sink = Gr_trace.Sink
module Trace_export = Gr_trace.Export
module Metrics = Gr_trace.Metrics
module Provenance = Gr_trace.Provenance
module Audit_log = Gr_trace.Audit_log
module Json = Gr_trace.Json

(* Substrate *)
module Util = Gr_util
module Sim = Gr_sim.Engine
module Nn = Gr_nn.Mlp
module Scaler = Gr_nn.Scaler
module Kernel = Gr_kernel.Kernel
module Hooks = Gr_kernel.Hooks
module Policy_slot = Gr_kernel.Policy_slot
module Ssd = Gr_kernel.Ssd
module Blk = Gr_kernel.Blk
module Sched = Gr_kernel.Sched
module Mm = Gr_kernel.Mm
module Cache = Gr_kernel.Cache
module Net = Gr_kernel.Net
module Fs = Gr_kernel.Fs

(* Facade *)
module Deployment = Deployment
module Fleet = Fleet
module Lifecycle = Lifecycle
module Serve = Serve
module Autotune = Autotune

let compile = Gr_compiler.Compile.source
let compile_exn = Gr_compiler.Compile.source_exn
