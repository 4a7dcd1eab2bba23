(* Seeded workload inputs and the spec texts installed from them.

   Every input a workload gets comes from the benchmark's --seed
   through these streams: the same seed gives the same specs, feature
   values and push script, and the program under test only ever sees
   the generated text and values. *)

open Gr_util

(* One independent stream per input family, so drawing more from one
   family never shifts another. *)
let stream ~seed family = Rng.split (Rng.create seed) family

(* Bounds far above any value the keys take: the workload monitors
   stay healthy, so their checks are the steady per-check cost and no
   action runs in the timed phase. *)
let bound rng = 1e6 +. Rng.float rng 1e6

let avg_monitor ~prefix ~i ~bound =
  Printf.sprintf
    {|guardrail %s_%d { trigger: { TIMER(0, 100ms) } rule: { AVG(key_%d, 1s) <= %.3f } action: { REPORT("key average over bound", key_%d) } }|}
    prefix i i bound i

(* ingest: one TIMER monitor per forwarded key, Ablation F's shape. *)
let ingest_monitors ~seed ~keys =
  let rng = stream ~seed 1 in
  List.init keys (fun i -> avg_monitor ~prefix:"ingest" ~i ~bound:(bound rng))

(* fleet-serve: the same shape, installed fleet-wide over merged keys. *)
let fleet_monitors ~seed ~monitors =
  let rng = stream ~seed 2 in
  List.init monitors (fun i -> avg_monitor ~prefix:"fleet" ~i ~bound:(bound rng))

let n_features = 40
let feature_key j = Printf.sprintf "feat_%d" j

(* check: a distilled-linear rule over 40 static features plus one
   streaming aggregate, checked on every I/O completion. *)
let check_monitors ~seed ~monitors =
  let rng = stream ~seed 3 in
  List.init monitors (fun j ->
      let terms =
        List.init n_features (fun f ->
            Printf.sprintf "%.6f * LOAD(%s)" (0.001 +. Rng.float rng 1.) (feature_key f))
      in
      Printf.sprintf
        {|guardrail linear_%d { trigger: { FUNCTION("blk:io_complete") } rule: { %s + 0.001 * AVG(latency_us, 1s) <= %.3f } action: { REPORT("linear score over bound") } }|}
        j (String.concat " + " terms) (bound rng))

let feature_values ~seed =
  let rng = stream ~seed 4 in
  Array.init n_features (fun _ -> Rng.float rng 1.)
