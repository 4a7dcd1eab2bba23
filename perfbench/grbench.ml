(* perfbench runner: one workload, repeated for a time budget.

     grbench.exe --workload ingest|check|fleet-serve --seed N --seconds S
                 --trace 0|1 [--revision R]

   Each repetition builds the workload from the seed (set-up), calls
   Gc.compact, runs the timed phase and checks its outputs. A run
   repeats until the budget is spent and reports medians over the
   repetitions: with --trace 0 the end-to-end metrics, each
   repetition's timings scaled to the reference host speed that
   host_ref.exe measures at its two ends; with --trace 1
   the per-layer metrics, from alternating plain and instrumented
   repetitions plus batched probes. The last line of stdout is one
   JSON object {correct, attempted, failed, metrics}; the exit code is
   0 only when every check passed. *)

module J = Guardrails.Json

let workloads = [ "ingest"; "check"; "fleet-serve" ]
let default_seed = 1

(* Outputs pinned at the default seed: timed-phase saves, checks and
   sim events, REPORTs over the whole repetition, and every push
   decision in order (P promoted, R rolled back, L lint-rejected). *)
let pins =
  let decisions =
    "LLLPLLLPLLLRLLLPLLLPLLLRLLLRLLLPLLLPLLLPLLLRLLLRLLLPLLLRLLLPLLLRLLLRLLLPLLLPLLLPLLLRLLLRLLLRLLLRLLLRLLLPLLLRLLLPLLLPLLLR"
  in
  [
    ("ingest", (3_603_963, 27_300, 51_338, 90, decisions));
    ("check", (24_036, 1_532_544, 24_038, 90, decisions));
    ("fleet-serve", (992_000, 1_737, 993_737, 90, decisions));
  ]

let rep workload ~seed ~traced =
  match workload with
  | "ingest" -> Rig.rep Rig.Ingest ~seed ~traced
  | "check" -> Rig.rep Rig.Check ~seed ~traced
  | _ -> Fleet_serve.rep ~seed ~traced

let pinned workload ~seed (o : Outcome.t) =
  match List.assoc_opt workload pins with
  | Some (saves, checks, events, reports, decisions) when seed = default_seed ->
    let checked, failures =
      Outcome.gate
        [
          ("pinned saves", o.saves, saves);
          ("pinned checks", o.checks, checks);
          ("pinned sim events", o.events, events);
          ("pinned reports", o.reports, reports);
        ]
    in
    ( checked + 1,
      if String.equal o.client.decisions decisions then failures
      else failures @ [ "pinned push decisions differ: " ^ o.client.decisions ] )
  | _ -> (0, [])

(* Repetitions until the budget is spent, at least [min_reps]. *)
let repeat ~budget_ns ~min_reps f =
  let t0 = Clock.now_ns () in
  let rec go i acc =
    if i >= min_reps && Clock.now_ns () - t0 >= budget_ns then List.rev acc
    else go (i + 1) (f i :: acc)
  in
  go 0 []

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1e6

let push_tail ms = Clock.quantile (Clock.tail_quantile (List.length ms)) ms

(* The host-speed reference (host_ref.ml), built next to this
   executable: one run of its kernel, in nanoseconds, in a fresh
   process. *)
let host_ref_ns () =
  let exe = Filename.concat (Filename.dirname Sys.executable_name) "host_ref.exe" in
  let ic = Unix.open_process_args_in exe [| exe |] in
  let line = In_channel.input_line ic in
  match (Unix.close_process_in ic, Option.bind line int_of_string_opt) with
  | Unix.WEXITED 0, Some ns when ns > 0 -> ns
  | _ -> failwith ("host reference failed: " ^ exe)

(* A fixed nominal time for the reference kernel: scaled timings read
   as seconds on a host that runs the kernel in this time. *)
let host_ref_nominal_ns = 125_000_000

(* A repetition's timings are scaled by the nominal time over the mean
   of the kernel's times just before and just after it. *)
let host_scale ~before ~after = float_of_int host_ref_nominal_ns /. (float_of_int (before + after) /. 2.)

(* Each repetition comes with the factor that scales its timings to the
   reference host speed. *)
let end_to_end (reps : (Outcome.t * float) list) =
  let med f = Clock.median (List.map (fun (o, scale) -> f o scale) reps) in
  let wall (o : Outcome.t) scale = Clock.sec o.wall_ns *. scale in
  [
    ("host_s_per_sim_s", "s/s", med (fun o s -> wall o s /. Clock.sec o.sim_ns));
    ("samples_per_s", "1/s", med (fun o s -> float_of_int o.saves /. wall o s));
    ("setup_s", "s", med (fun o s -> Clock.sec o.setup_ns *. s));
    ("peak_heap_mb", "MB", peak_heap_mb ());
  ]

let per_layer ~(plain : Outcome.t list) ~(traced : Outcome.t list) (p : Probes.t) =
  let o = List.nth plain (List.length plain - 1) in
  let f = float_of_int in
  let per n d = if d = 0 then 0. else n /. f d in
  let wall (o : Outcome.t) = f o.wall_ns in
  let traced_med = Clock.median (List.map wall traced) in
  (* The traced repetition whose wall is nearest the median gives the
     ledger, so its rows sum to one measured wall. *)
  let t =
    List.fold_left
      (fun best x ->
        if Float.abs (wall x -. traced_med) < Float.abs (wall best -. traced_med) then x else best)
      (List.hd traced) traced
  in
  let rows = match t.ledger with Some l -> l p | None -> [] in
  let row name = Option.value ~default:0. (List.assoc_opt name rows) in
  let admit_ms = Clock.mean (List.map p.admit_ms o.client.kinds) in
  [
    ("sim.events", "count", f o.events);
    ("sim.step_ns", "ns", per (row "sim") t.events);
    ("hooks.fires", "count", f o.hook_fires);
    ("hooks.fanout_ns", "ns", per (f t.fanout_ns) t.fanouts);
    ("hooks.fanout_share", "share", f t.fanout_ns /. wall t);
    ("store.saves", "count", f o.saves);
    ("store.loads", "count", f o.loads);
    ("store.agg_hits", "count", f o.agg_hits);
    ("store.agg_misses", "count", f o.agg_misses);
    ("store.expired", "count", f o.expired);
    ("store.save_ns", "ns", p.save_ns);
    ("store.save_inrun_ns", "ns", per (row "store_save") t.saves);
    ("store.save_minor_words", "words", p.save_minor_words);
    ("store.save_promoted_words", "words", p.save_promoted_words);
    ("store.handle_load_ns", "ns", p.handle_load_ns);
    ("store.merged_agg_us", "us", p.agg_ns /. 1e3);
    ("engine.checks", "count", f o.checks);
    ("engine.action_firings", "count", f o.firings);
    ("engine.est_check_work_ns", "ns", o.est_work_ns);
    ("engine.jit_monitors", "count", f o.jit_monitors);
    ("engine.reg_monitors", "count", f o.reg_monitors);
    ("engine.check_ns", "ns", p.check_ns);
    ( "engine.check_inrun_ns",
      "ns",
      per (row "engine" +. row "store_read" +. row "trace") t.checks );
    ("hooks.dispatch_ns", "ns", p.dispatch_ns);
    ("trace.metrics_record_ns", "ns", p.record_ns);
    ( "trace.overhead",
      "ratio",
      traced_med /. Clock.median (List.map wall plain) );
    ("compiler.compile_us", "us", per (f o.compile_ns /. 1e3) o.monitors);
    ("engine.install_us", "us", per (f o.install_ns /. 1e3) o.monitors);
    ("linnos.train_ms", "ms", Clock.ms o.train_ns);
    ( "lifecycle.push_admit_ms_p50",
      "ms",
      Clock.median (List.map (fun (o : Outcome.t) -> Clock.median o.client.push_ms) plain) );
    ( "lifecycle.push_admit_ms_tail",
      "ms",
      Clock.median (List.map (fun (o : Outcome.t) -> push_tail o.client.push_ms) plain) );
    ("analysis.admit_ms", "ms", admit_ms);
    ("lifecycle.push_rest_ms", "ms", Clock.mean o.client.push_ms -. admit_ms);
    ("fleet.barriers", "count", f (List.length o.epoch_ms));
    ("fleet.epoch_ms", "ms", Clock.median o.epoch_ms);
    ("lifecycle.barrier_us", "us", per (f o.barrier_ns /. 1e3) (List.length o.epoch_ms));
    ("lifecycle.pushes", "count", f (List.length o.client.push_ms));
    ("lifecycle.promotions", "count", f o.client.promotions);
    ("lifecycle.rollbacks", "count", f o.client.rollbacks);
    ("lifecycle.rejections", "count", f o.client.rejections);
    ("gc.minor_collections", "count", f o.gc_minor);
    ("gc.major_collections", "count", f o.gc_major);
    ("gc.promoted_words", "words", o.gc_promoted);
  ]
  @ List.concat_map
      (fun (layer, ns) ->
        [ ("layer." ^ layer ^ "_ms", "ms", ns /. 1e6); ("layer." ^ layer ^ "_share", "share", ns /. wall t) ])
      rows
  @ [ ("layer.wall_ms", "ms", wall t /. 1e6) ]

let usage =
  "grbench.exe --workload ingest|check|fleet-serve --seed N --seconds S --trace 0|1 [--revision R]"

let () =
  let workload = ref "" and seed = ref default_seed and seconds = ref 20 and trace = ref 0 in
  let revision = ref "unknown" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " ingest | check | fleet-serve");
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_int seconds, " measuring budget");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: per-layer metrics");
      ("--revision", Arg.Set_string revision, " source revision to stamp");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if (not (List.mem !workload workloads)) || !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  let traced_run = !trace = 1 in
  let probe = ref None in
  (* The reference kernel's time at the last repetition boundary: the
     end of one repetition is the start of the next. *)
  let boundary = ref None and ref_ms = ref [] in
  let measure_ref () =
    let ns = host_ref_ns () in
    ref_ms := Clock.ms ns :: !ref_ms;
    ns
  in
  let run i =
    let traced = traced_run && i mod 2 = 1 in
    (* Free the previous repetition first, so the peak heap is one
       repetition's and set-up starts from a compact heap. *)
    probe := None;
    Gc.compact ();
    if traced_run then begin
      (* Per-layer times are raw: the probes need the last repetition's
         state alive, and no bound applies to them. *)
      let o, p = rep !workload ~seed:!seed ~traced in
      probe := Some p;
      (o, traced, 1.)
    end
    else begin
      let before = match !boundary with Some ns -> ns | None -> measure_ref () in
      let o = fst (rep !workload ~seed:!seed ~traced) in
      let after = measure_ref () in
      boundary := Some after;
      (o, traced, host_scale ~before ~after)
    end
  in
  (* The first two repetitions warm the process up (heap growth, code
     and data caches) and read up to 30% slower; they are checked but
     not measured. *)
  let warmups = 2 in
  let all = repeat ~budget_ns:(!seconds * 1_000_000_000) ~min_reps:(warmups + if traced_run then 4 else 3) run in
  let reps = List.filteri (fun i _ -> i >= warmups) all in
  let outs = List.map (fun (o, _, _) -> o) reps in
  let metrics =
    if traced_run then
      per_layer
        ~plain:(List.filter_map (fun (o, tr, _) -> if tr then None else Some o) reps)
        ~traced:(List.filter_map (fun (o, tr, _) -> if tr then Some o else None) reps)
        ((Option.get !probe) ())
    else end_to_end (List.map (fun (o, _, scale) -> (o, scale)) reps)
  in
  let checked, failures =
    List.fold_left
      (fun (n, fs) (o : Outcome.t) ->
        let pn, pf = pinned !workload ~seed:!seed o in
        (n + o.checked + pn, fs @ o.failures @ pf))
      (0, []) (List.map (fun (o, _, _) -> o) all)
  in
  List.iter (fun f -> prerr_endline ("perfbench: check failed: " ^ f)) failures;
  let first = List.hd outs in
  print_endline
    (J.to_string
       (J.Obj
          [
            ( "stamp",
              J.Obj
                [
                  ("workload", J.Str !workload);
                  ("seed", J.Num (float_of_int !seed));
                  ("trace", J.Num (float_of_int !trace));
                  ("repetitions", J.Num (float_of_int (List.length outs)));
                  ("pushes_per_repetition", J.Num (float_of_int (List.length first.client.push_ms)));
                  ( "push_tail_quantile",
                    J.Num (Clock.tail_quantile (List.length first.client.push_ms)) );
                  ("decisions", J.Str first.client.decisions);
                  ("saves", J.Num (float_of_int first.saves));
                  ("checks", J.Num (float_of_int first.checks));
                  ("sim_events", J.Num (float_of_int first.events));
                  ("reports", J.Num (float_of_int first.reports));
                  ("host_ref_ms", J.Num (Clock.median !ref_ms));
                  ("host_cores", J.Num (float_of_int (Domain.recommended_domain_count ())));
                  ("ocaml", J.Str Sys.ocaml_version);
                  ("revision", J.Str !revision);
                ] );
          ]));
  List.iter (fun (name, unit, v) -> Printf.printf "%-32s %16.6g %s\n" name v unit) metrics;
  let finite v = if Float.is_finite v then v else 0. in
  print_endline
    (J.to_string
       (J.Obj
          [
            ("correct", J.Bool (failures = []));
            ("attempted", J.Num (float_of_int checked));
            ("failed", J.Num (float_of_int (List.length failures)));
            ( "metrics",
              J.Obj
                (List.map
                   (fun (name, unit, v) -> (name, J.Obj [ ("value", J.Num (finite v)); ("unit", J.Str unit) ]))
                   metrics) );
          ]));
  exit (if failures = [] then 0 else 1)
