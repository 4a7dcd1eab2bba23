(* The host-speed reference: a fixed kernel that grbench runs at every
   repetition boundary of an end-to-end run. It prints the kernel's time
   in nanoseconds and exits.

   The host this benchmark runs on is shared, and its speed drifts by
   tens of percent over minutes as neighbours load the memory system; a
   plain compute loop barely moves while the workloads slow by half. So
   the kernel does what the workloads spend their time on: string-key
   hashtable lookups, boxed floats pushed through per-key windows, folds
   over a window, and the minor and major GC work that comes with them.

   It is its own executable, linked with no library of the repository
   and started fresh each time, so neither a change to the program nor
   the heap a workload leaves behind moves it: in the benchmark's own
   process its time varied by a third with the size the heap had once
   reached. *)

let keys = 4096
let window = 64
let steps = 600_000

let kernel () =
  let names = Array.init keys string_of_int in
  let table = Hashtbl.create keys in
  Array.iter (fun name -> Hashtbl.replace table name (Queue.create ())) names;
  let x = ref 7 and sum = ref 0. in
  for i = 1 to steps do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let q = Hashtbl.find table names.(!x land (keys - 1)) in
    Queue.push (float_of_int i *. 0.5) q;
    if Queue.length q > window then ignore (Queue.pop q : float);
    if i land 15 = 0 then sum := !sum +. Queue.fold ( +. ) 0. q
  done;
  !sum

let () =
  let t0 = Monotonic_clock.now () in
  ignore (Sys.opaque_identity (kernel ()) : float);
  print_endline (Int64.to_string (Int64.sub (Monotonic_clock.now ()) t0))
