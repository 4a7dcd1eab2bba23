(* A tiny fork-join pool over OCaml 5 domains.

   The epoch-barrier fleet runs one task per node per epoch. Each round
   splits the task indices into fixed contiguous blocks, one per
   participant: participant [k] of [d] runs [k·n/d] to [(k+1)·n/d - 1]
   in order, the calling domain being participant 0. A node therefore
   stays on one domain from epoch to epoch, and its sim heap, store
   rings and demands stay in that core's cache: a node's work per
   epoch is too small to pay for moving them. Tasks of different
   blocks still run concurrently in no fixed order, which is why the
   fleet protocol requires node tasks to be mutually independent and
   to buffer cross-node effects for the sequential barrier phase.

   Workers are spawned once per pool and parked on a condition
   variable between epochs: spawning a domain costs far more than an
   epoch's worth of node events, so per-epoch spawn would erase the
   parallelism being bought. The main domain participates in every
   round, so a pool of [domains] executes on [domains] cores using
   [domains - 1] spawned workers; [domains = 1] degenerates to a plain
   loop with no domains, no locks and no atomics. *)

type job = {
  f : int -> unit;
  n : int;
  mutable live : int; (* workers still inside this round *)
  mutable error : (int * exn) option; (* lowest task index that raised *)
}

type t = {
  domains : int;
  mutex : Mutex.t;
  wake : Condition.t; (* workers wait here for a round (or shutdown) *)
  done_ : Condition.t; (* main waits here for round completion *)
  mutable job : job option;
  mutable generation : int; (* bumped per round so workers can't rejoin one *)
  mutable shutdown : bool;
  mutable workers : unit Domain.t list;
}

let size t = t.domains

let run_block t job k =
  (* Run participant [k]'s block. A task that raises poisons the round
     but the block goes on; recording happens under the pool mutex and
     the lowest raising index wins, so the error re-raised in the main
     domain is deterministic even when several tasks fail. *)
  for i = k * job.n / t.domains to ((k + 1) * job.n / t.domains) - 1 do
    match job.f i with
    | () -> ()
    | exception e ->
      Mutex.lock t.mutex;
      (match job.error with
      | Some (j, _) when j <= i -> ()
      | _ -> job.error <- Some (i, e));
      Mutex.unlock t.mutex
  done

let worker t k () =
  let gen = ref 0 in
  let rec loop () =
    Mutex.lock t.mutex;
    while (not t.shutdown) && (t.job = None || t.generation = !gen) do
      Condition.wait t.wake t.mutex
    done;
    if t.shutdown then Mutex.unlock t.mutex
    else begin
      let job = Option.get t.job in
      gen := t.generation;
      Mutex.unlock t.mutex;
      run_block t job k;
      Mutex.lock t.mutex;
      job.live <- job.live - 1;
      if job.live = 0 then Condition.broadcast t.done_;
      Mutex.unlock t.mutex;
      loop ()
    end
  in
  loop ()

let create ~domains =
  if domains < 1 then invalid_arg "Pool.create: domains must be >= 1";
  let t =
    {
      domains;
      mutex = Mutex.create ();
      wake = Condition.create ();
      done_ = Condition.create ();
      job = None;
      generation = 0;
      shutdown = false;
      workers = [];
    }
  in
  t.workers <- List.init (domains - 1) (fun k -> Domain.spawn (worker t (k + 1)));
  t

let run t f n =
  if n = 0 then ()
  else if t.domains = 1 then
    for i = 0 to n - 1 do
      f i
    done
  else begin
    let job = { f; n; live = t.domains; error = None } in
    Mutex.lock t.mutex;
    t.job <- Some job;
    t.generation <- t.generation + 1;
    Condition.broadcast t.wake;
    Mutex.unlock t.mutex;
    (* The main domain runs block 0, then joins the round. *)
    run_block t job 0;
    Mutex.lock t.mutex;
    job.live <- job.live - 1;
    while job.live > 0 do
      Condition.wait t.done_ t.mutex
    done;
    t.job <- None;
    let error = job.error in
    Mutex.unlock t.mutex;
    match error with None -> () | Some (_, e) -> raise e
  end

let shutdown t =
  Mutex.lock t.mutex;
  t.shutdown <- true;
  Condition.broadcast t.wake;
  Mutex.unlock t.mutex;
  List.iter Domain.join t.workers;
  t.workers <- []

let with_pool ~domains f =
  let t = create ~domains in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
