open Gr_util

type task_state = Runnable | Running | Complete | Killed

type task = {
  tid : int;
  task_name : string;
  cls : string;
  mutable weight : int;
  demand : Time_ns.t;
  mutable received : Time_ns.t;
  mutable vruntime : float;
  mutable state : task_state;
  mutable ready_since : Time_ns.t;
  mutable max_wait : Time_ns.t;
  mutable total_wait : Time_ns.t;
  mutable dispatches : int;
  mutable cpu : int;
  arrived : Time_ns.t;
}

type policy = {
  policy_name : string;
  slice : nr_runnable:int -> task_weight:int -> task_received_ms:float -> Time_ns.t;
}

let cfs_policy =
  {
    policy_name = "cfs";
    slice =
      (fun ~nr_runnable ~task_weight:_ ~task_received_ms:_ ->
        Time_ns.max (Time_ns.ms 1) (Time_ns.ms 24 / max 1 nr_runnable));
  }

type balancer = { balancer_name : string; place : queue_lens:int array -> int }

let least_loaded =
  {
    balancer_name = "least-loaded";
    place =
      (fun ~queue_lens ->
        let best = ref 0 in
        Array.iteri (fun i len -> if len < queue_lens.(!best) then best := i) queue_lens;
        !best);
  }

type t = {
  engine : Gr_sim.Engine.t;
  hooks : Hooks.t;
  slot : policy Policy_slot.t;
  balancer_slot : balancer Policy_slot.t;
  cpus : int;
  dispatching : bool array;
  mutable all_tasks : task list; (* newest first *)
  mutable next_tid : int;
}

let create ~engine ~hooks ?(cpus = 1) () =
  if cpus <= 0 then invalid_arg "Sched.create: cpus must be positive";
  {
    engine;
    hooks;
    slot = Policy_slot.create ~name:"sched:slice" ~fallback:("cfs", cfs_policy);
    balancer_slot =
      Policy_slot.create ~name:"sched:balancer" ~fallback:("least-loaded", least_loaded);
    cpus;
    dispatching = Array.make cpus false;
    all_tasks = [];
    next_tid = 1;
  }

let slot t = t.slot
let balancer_slot t = t.balancer_slot
let cpus t = t.cpus
let tasks t = List.rev t.all_tasks
let runnable t = List.filter (fun task -> task.state = Runnable) t.all_tasks
let runnable_on t c = List.filter (fun task -> task.state = Runnable && task.cpu = c) t.all_tasks

let running_on t c =
  List.exists (fun task -> task.state = Running && task.cpu = c) t.all_tasks

(* CPUs sitting idle while ready tasks wait on other runqueues — the
   "decade of wasted cores" signal the paper's Sec. 1 cites. *)
let wasted_cores t =
  let idle c = (not (running_on t c)) && runnable_on t c = [] in
  let someone_waits = runnable t <> [] in
  if not someone_waits then 0
  else begin
    let count = ref 0 in
    for c = 0 to t.cpus - 1 do
      if idle c then incr count
    done;
    !count
  end

let max_wait_ms t =
  let now = Gr_sim.Engine.now t.engine in
  List.fold_left
    (fun acc task -> Float.max acc (Time_ns.to_float_ms (Time_ns.diff now task.ready_since)))
    0. (runnable t)

let received_by_class t =
  let table = Hashtbl.create 8 in
  List.iter
    (fun task ->
      let prev = Option.value ~default:0. (Hashtbl.find_opt table task.cls) in
      Hashtbl.replace table task.cls (prev +. Time_ns.to_float_sec task.received))
    t.all_tasks;
  List.of_seq (Hashtbl.to_seq table)

let pick_next t c =
  match runnable_on t c with
  | [] -> None
  | first :: rest ->
    Some
      (List.fold_left
         (fun best task -> if task.vruntime < best.vruntime then task else best)
         first rest)

let clamp_slice s = Time_ns.max (Time_ns.us 1) (Time_ns.min (Time_ns.sec 1) s)

let rec dispatch t c =
  match pick_next t c with
  | None ->
    t.dispatching.(c) <- false;
    (* Going idle with work queued elsewhere is the wasted-core
       condition; there is no work stealing, so only the balancer's
       placement decisions (or a guardrail) can fix it. *)
    let wasted = wasted_cores t in
    if wasted > 0 then
      Hooks.fire t.hooks "sched:wasted_core"
        [ ("cpu", float_of_int c); ("wasted", float_of_int wasted) ]
  | Some task ->
    let now = Gr_sim.Engine.now t.engine in
    let nr = List.length (runnable_on t c) in
    let policy = Policy_slot.current t.slot in
    let raw_slice =
      policy.slice ~nr_runnable:nr ~task_weight:task.weight
        ~task_received_ms:(Time_ns.to_float_ms task.received)
    in
    let remaining = Time_ns.diff task.demand task.received in
    let slice = Time_ns.min (clamp_slice raw_slice) remaining in
    let wait = Time_ns.diff now task.ready_since in
    task.max_wait <- Time_ns.max task.max_wait wait;
    task.total_wait <- Time_ns.add task.total_wait wait;
    task.dispatches <- task.dispatches + 1;
    task.state <- Running;
    Hooks.fire t.hooks "sched:dispatch"
      [
        ("tid", float_of_int task.tid);
        ("cpu", float_of_int c);
        ("slice_us", Time_ns.to_float_us raw_slice);
        ("wait_ms", Time_ns.to_float_ms wait);
      ];
    Hooks.fire t.hooks "sched:starvation" [ ("max_wait_ms", max_wait_ms t) ];
    let finish engine =
      let now' = Gr_sim.Engine.now engine in
      task.received <- Time_ns.add task.received slice;
      task.vruntime <-
        task.vruntime +. (Time_ns.to_float_sec slice *. 1024. /. float_of_int (max 1 task.weight));
      if Time_ns.compare task.received task.demand >= 0 then begin
        task.state <- Complete;
        Hooks.fire t.hooks "sched:task_complete"
          [
            ("tid", float_of_int task.tid);
            ("turnaround_ms", Time_ns.to_float_ms (Time_ns.diff now' task.arrived));
          ]
      end
      else begin
        task.state <- Runnable;
        task.ready_since <- now'
      end;
      dispatch t c
    in
    ignore (Gr_sim.Engine.schedule_after t.engine slice finish : Gr_sim.Engine.handle)

let ensure_dispatching t c =
  if not t.dispatching.(c) then begin
    t.dispatching.(c) <- true;
    (* Defer to an event so spawning inside a callback is safe. *)
    ignore (Gr_sim.Engine.schedule_after t.engine 0 (fun _ -> dispatch t c) : Gr_sim.Engine.handle)
  end

let queue_lens t =
  Array.init t.cpus (fun c ->
      List.length (runnable_on t c) + if running_on t c then 1 else 0)

let spawn t ~name ?(cls = "default") ?(weight = 1024) ~demand () =
  let now = Gr_sim.Engine.now t.engine in
  let balancer = Policy_slot.current t.balancer_slot in
  (* A bogus placement (negative or beyond the CPU count) is clamped
     into range rather than crashing the kernel; the raw decision is
     still observable to guardrails via queue imbalance. *)
  let cpu = max 0 (min (t.cpus - 1) (balancer.place ~queue_lens:(queue_lens t))) in
  let task =
    {
      tid = t.next_tid;
      task_name = name;
      cls;
      weight;
      demand;
      received = Time_ns.zero;
      vruntime = 0.;
      state = Runnable;
      ready_since = now;
      max_wait = Time_ns.zero;
      total_wait = Time_ns.zero;
      dispatches = 0;
      cpu;
      arrived = now;
    }
  in
  (* New tasks start at the minimum live vruntime of their runqueue so
     they neither starve nor monopolise. *)
  (match pick_next t cpu with Some leader -> task.vruntime <- leader.vruntime | None -> ());
  t.next_tid <- t.next_tid + 1;
  t.all_tasks <- task :: t.all_tasks;
  ensure_dispatching t cpu;
  task

let live_in_class t ~cls =
  List.filter
    (fun task -> task.cls = cls && (task.state = Runnable || task.state = Running))
    t.all_tasks

let deprioritize_class t ~cls ~weight =
  let affected = live_in_class t ~cls in
  List.iter (fun task -> task.weight <- max 1 weight) affected;
  List.length affected

let kill_class t ~cls =
  let affected = live_in_class t ~cls in
  List.iter (fun task -> if task.state <> Running then task.state <- Killed) affected;
  List.length (List.filter (fun task -> task.state = Killed) affected)

let rebalance t =
  (* Even redistribution of runnable tasks — the corrective a
     guardrail can invoke when the balancer has gone wrong. Running
     tasks stay put (no preemptive migration). *)
  let moved = ref 0 in
  let ready = runnable t in
  List.iteri
    (fun i task ->
      let target = i mod t.cpus in
      if task.cpu <> target then begin
        task.cpu <- target;
        incr moved
      end;
      ensure_dispatching t target)
    ready;
  !moved
