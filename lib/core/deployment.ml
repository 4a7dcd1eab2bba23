open Gr_util

type t = {
  kernel : Gr_kernel.Kernel.t;
  store : Gr_runtime.Feature_store.t;
  engine : Gr_runtime.Engine.t;
  tracer : Gr_trace.Tracer.t;
  (* Newest first; O(1) install. Accessors present install order. *)
  mutable monitors_rev : (Gr_runtime.Engine.handle * Gr_compiler.Monitor.t) list;
}

let create ~kernel ?config ?(store_capacity = 4096) ?(tracing = false)
    ?(trace_capacity = 65536) ?node_id ?engine () =
  (* The hook table and sim engine belong to the kernel and carry one
     tracer, so a kernel hosts one deployment. *)
  if Option.is_some (Gr_kernel.Hooks.tracer kernel.Gr_kernel.Kernel.hooks) then
    invalid_arg "Deployment.create: the kernel already carries a deployment";
  let tracer =
    Gr_trace.Tracer.create
      ~clock:(fun () -> Gr_kernel.Kernel.now kernel)
      ~capacity:trace_capacity ~enabled:tracing ?node_id ()
  in
  let store =
    Gr_runtime.Feature_store.create
      ~clock:(fun () -> Gr_kernel.Kernel.now kernel)
      ~capacity_per_key:store_capacity ()
  in
  Gr_runtime.Feature_store.set_tracer store tracer;
  let engine = Gr_runtime.Engine.create ~kernel ~store ?config ~tracer ?engine () in
  Gr_kernel.Hooks.set_tracer kernel.hooks tracer;
  Gr_sim.Engine.set_tracer kernel.engine tracer;
  { kernel; store; engine; tracer; monitors_rev = [] }

let kernel t = t.kernel
let node_id t = Gr_trace.Tracer.node_id t.tracer
let store t = t.store
let engine t = t.engine
let tracer t = t.tracer
let metrics t = Gr_trace.Tracer.metrics t.tracer
let write_chrome_trace t ~path = Gr_trace.Export.write_chrome ~path t.tracer

type error =
  | Compile of Gr_compiler.Compile.error
  | Install of string * string list

let pp_error fmt = function
  | Compile e -> Gr_compiler.Compile.pp_error fmt e
  | Install (name, errs) ->
    Format.fprintf fmt "installing monitor %s failed:" name;
    List.iter (fun e -> Format.fprintf fmt "@\n  %s" e) errs

let install_monitor ?version t monitor =
  match Gr_runtime.Engine.install ?version t.engine monitor with
  | Ok handle ->
    t.monitors_rev <- (handle, monitor) :: t.monitors_rev;
    Ok handle
  | Error errs -> Error (Install (monitor.Gr_compiler.Monitor.name, errs))

let uninstall t handle =
  Gr_runtime.Engine.uninstall t.engine handle;
  t.monitors_rev <- List.filter (fun (h, _) -> h != handle) t.monitors_rev

(* Shared by install_source and the versioned lifecycle: install a
   compiled monitor set atomically — on any failure everything from
   this set is rolled back (demand refcounts released) before the
   error returns. *)
let install_monitors ?version t monitors =
  let rec go installed = function
    | [] -> Ok (List.rev installed)
    | m :: rest -> (
      match install_monitor ?version t m with
      | Ok handle -> go (handle :: installed) rest
      | Error e ->
        List.iter (uninstall t) installed;
        Error e)
  in
  go [] monitors

let install_source t src =
  match Gr_compiler.Compile.source src with
  | Error e -> Error (Compile e)
  | Ok monitors -> install_monitors t monitors

let install_source_exn t src =
  match install_source t src with
  | Ok handles -> handles
  | Error e -> failwith (Format.asprintf "%a" pp_error e)

let installed_monitors t = List.rev_map snd t.monitors_rev
let feedback_cycles t = Gr_compiler.Deps.cycles (installed_monitors t)

let save t key value = Gr_runtime.Feature_store.save t.store key value

let forward_hook_arg t ~hook ~arg ?key () =
  let h = Gr_runtime.Feature_store.save_handle t.store (Option.value ~default:arg key) in
  ignore
    (Gr_kernel.Hooks.subscribe t.kernel.hooks hook (fun args ->
         match List.assoc arg args with
         | v -> Gr_runtime.Feature_store.handle_save h v
         | exception Not_found -> ())
      : Gr_kernel.Hooks.subscription)

let derive_window_avg t ~src ~dst ~window ~every =
  (* The derivation asks for this exact aggregate forever; register it
     so every periodic read is a streaming O(1) hit, not a scan, and
     read it through a handle resolved once. *)
  let window_ns = float_of_int window in
  Gr_runtime.Feature_store.register_demand t.store ~key:src ~fn:Gr_dsl.Ast.Avg ~window_ns
    ~param:0.;
  let avg =
    Gr_runtime.Feature_store.agg_handle t.store ~key:src ~fn:Gr_dsl.Ast.Avg ~window_ns ~param:0.
  in
  let h = Gr_runtime.Feature_store.save_handle t.store dst in
  ignore
    (Gr_sim.Engine.every t.kernel.engine ~interval:every (fun _ ->
         Gr_runtime.Feature_store.(handle_save h (handle_aggregate avg).value))
      : Gr_sim.Engine.handle)

let derive_periodic t ~key ~every sample =
  let h = Gr_runtime.Feature_store.save_handle t.store key in
  ignore
    (Gr_sim.Engine.every t.kernel.engine ~interval:every (fun _ ->
         Gr_runtime.Feature_store.handle_save h (sample ()))
      : Gr_sim.Engine.handle)

let bind_control_key t ~key callback =
  ignore (Gr_runtime.Feature_store.watch t.store key callback : Gr_runtime.Feature_store.watch);
  if Gr_runtime.Feature_store.mem t.store key then
    callback (Gr_runtime.Feature_store.load t.store key)

let wire_scheduler t sched =
  Gr_runtime.Engine.set_deprioritize_handler t.engine (fun ~cls ~weight ->
      ignore (Gr_kernel.Sched.deprioritize_class sched ~cls ~weight : int));
  Gr_runtime.Engine.set_kill_handler t.engine (fun ~cls ->
      ignore (Gr_kernel.Sched.kill_class sched ~cls : int));
  let max_wait () = Gr_kernel.Sched.max_wait_ms sched in
  let jain () =
    let received = List.map snd (Gr_kernel.Sched.received_by_class sched) in
    Stats.jain_index (Array.of_list received)
  in
  (* Seed both keys so guardrails checking before the first periodic
     sample see healthy values, not LOAD's 0-default. *)
  save t "sched_max_wait_ms" (max_wait ());
  save t "sched_jain" (jain ());
  derive_periodic t ~key:"sched_max_wait_ms" ~every:(Time_ns.ms 10) max_wait;
  derive_periodic t ~key:"sched_jain" ~every:(Time_ns.ms 10) jain;
  save t "sched_wasted_cores" 0.;
  derive_periodic t ~key:"sched_wasted_cores" ~every:(Time_ns.ms 10) (fun () ->
      float_of_int (Gr_kernel.Sched.wasted_cores sched))
