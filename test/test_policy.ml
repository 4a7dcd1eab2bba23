(* Tests for gr_policy: each learned policy must (a) genuinely learn
   its task, and (b) exhibit the documented failure mode on demand. *)

open Gr_util

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---------- Linnos ---------- *)

let make_devices ?(n = 2) ?(seed = 21) profile =
  let rng = Rng.create seed in
  (rng, Array.init n (fun i -> Gr_kernel.Ssd.create ~rng ~profile ~id:i))

(* The full-size trainings below share one table: the young ones share
   one input, so they share one training. *)
let linnos_templates = Gr_policy.Linnos.Templates.create ()

let young_model () =
  let rng, devices = make_devices Gr_kernel.Ssd.young_profile in
  (devices, Gr_policy.Linnos.Templates.train linnos_templates ~rng ~devices)

let test_linnos_learns_young_regime () =
  let _, m = young_model () in
  check_bool "holdout accuracy above 90%" true (Gr_policy.Linnos.holdout_accuracy m > 0.9)

let test_linnos_policy_decisions () =
  let _, m = young_model () in
  let policy = Gr_policy.Linnos.policy m in
  (* Calm history, empty queues: must trust the primary. *)
  let calm = [| 0.; 0.; 90.; 95.; 92.; 88. |] in
  check_bool "calm -> trust" true (policy.decide calm = Gr_kernel.Blk.Trust_primary);
  (* GC-storm history: must revoke. *)
  let storm = [| 10.; 0.; 900.; 1100.; 1000.; 950. |] in
  check_bool "storm -> revoke" true (policy.decide storm = Gr_kernel.Blk.Revoke_now)

(* A copy is deep and stands in for training anew: two rigs of one
   seed train identical models, and retraining a copy of the first,
   bound to the second rig's devices, matches retraining the second,
   while the original stays as trained. Small training for speed. *)
let test_linnos_copy () =
  let module L = Gr_policy.Linnos in
  let train () =
    let rng, devices = make_devices Gr_kernel.Ssd.young_profile in
    (devices, L.train ~rng ~devices ~samples_per_device:200 ~epochs:3 ())
  in
  let _, original = train () and devices, fresh = train () in
  let copy = L.copy original ~devices in
  let probes = [ [| 0.; 0.; 90.; 95.; 92.; 88. |]; [| 10.; 0.; 900.; 1100.; 1000.; 950. |] ] in
  let scores m = List.map (L.predict_score m) probes in
  let check_scores msg expected m = Alcotest.(check (list (float 0.))) msg expected (scores m) in
  let trained = scores original in
  check_scores "copy predicts as the original" trained copy;
  Array.iter (fun dev -> Gr_kernel.Ssd.set_profile dev Gr_kernel.Ssd.aged_profile) devices;
  L.retrain copy;
  L.retrain fresh;
  check_scores "retrained copy = retrained fresh model" (scores fresh) copy;
  check_scores "original untouched" trained original;
  check_int "retrains counted on the copy only" 0 (L.retrain_count original);
  (* A template hit is such a copy. Aged rigs leave the rng as young
     ones do, so the first aged rig must miss the young template (a key
     without the profiles hits it) and train; the second hits, and
     scores, moves its rng and retrains as that fresh training. *)
  let rng_after profile = Rng.int64 (fst (make_devices profile)) in
  Alcotest.(check int64) "aged and young rigs leave one rng state"
    (rng_after Gr_kernel.Ssd.young_profile) (rng_after Gr_kernel.Ssd.aged_profile);
  let _, young = young_model () in
  let aged_rig () =
    let rng, devices = make_devices Gr_kernel.Ssd.aged_profile in
    (rng, L.Templates.train linnos_templates ~rng ~devices)
  in
  let miss_rng, miss = aged_rig () in
  let hit_rng, hit = aged_rig () in
  check_bool "aged profiles miss the young template" true (scores miss <> scores young);
  check_scores "template hit scores as a fresh training" (scores miss) hit;
  Alcotest.(check int64) "template hit leaves the rng where training does" (Rng.int64 miss_rng)
    (Rng.int64 hit_rng);
  L.retrain miss;
  L.retrain hit;
  check_scores "retrained template hit = retrained fresh training" (scores miss) hit

(* The original and its copy, each run by its own domain at the same
   time, score what each scores alone: a copy owns its MLP buffers and
   its scaled-input buffer. *)
let test_linnos_copy_alongside () =
  let rng, devices = make_devices Gr_kernel.Ssd.young_profile in
  let m = Gr_policy.Linnos.train ~rng ~devices ~samples_per_device:200 ~epochs:3 () in
  let twin = Gr_policy.Linnos.copy m ~devices in
  let probes =
    Array.init 32 (fun k ->
        let f = float_of_int k in
        [| float_of_int (k mod 13); float_of_int (k mod 5); 90. +. (f *. 30.); 95. +. (f *. 25.);
           92. +. (f *. 20.); 88. +. (f *. 35.) |])
  in
  let run m = Array.init 4000 (fun k -> Gr_policy.Linnos.predict_score m probes.(k mod 32)) in
  let alone = run m in
  Alcotest.(check (array (float 0.))) "copy alone scores as the original" alone (run twin);
  let other = Domain.spawn (fun () -> run twin) in
  let mine = run m in
  Alcotest.(check (array (float 0.))) "original beside its copy" alone mine;
  Alcotest.(check (array (float 0.))) "copy beside the original" alone (Domain.join other);
  Array.iteri
    (fun k x ->
      let a = Gr_policy.Linnos.predict_score m x and b = Gr_policy.Linnos.predict_score twin x in
      Alcotest.(check (pair (float 0.) (float 0.))) "interleaved" (alone.(k), alone.(k)) (a, b))
    probes

(* One decision scales into the model's own input buffer and scores
   through the model's own layer buffers: zero words under the release
   profile [make alloc-smoke] builds, where [Scorer.score_of] inlines into
   the decision. The dev profile compiles with -opaque, so there the
   score is a call that boxes its float result (2 words) and nothing
   more. *)
let test_linnos_decision_allocates_nothing () =
  let rng, devices = make_devices Gr_kernel.Ssd.young_profile in
  let m = Gr_policy.Linnos.train ~rng ~devices ~samples_per_device:200 ~epochs:3 () in
  let probes = [| [| 0.; 0.; 90.; 95.; 92.; 88. |]; [| 10.; 0.; 900.; 1100.; 1000.; 950. |] |] in
  let slow = ref 0 in
  let w0 = Gc.minor_words () in
  for k = 1 to 10_000 do
    if Gr_policy.Linnos.predict_slow m probes.(k land 1) then incr slow
  done;
  let words = Gc.minor_words () -. w0 in
  check_bool "some decisions slow, some not" true (!slow > 0 && !slow < 10_000);
  let boxes = if Build_profile.release then 0 else 2 * 10_000 in
  Alcotest.(check (float 0.)) "minor words across 10k decisions" (float_of_int boxes) words

let test_linnos_disabled_hedges () =
  let _, m = young_model () in
  Gr_policy.Linnos.set_enabled m false;
  let policy = Gr_policy.Linnos.policy m in
  (match policy.decide [| 0.; 0.; 900.; 1100.; 1000.; 950. |] with
  | Gr_kernel.Blk.Hedge _ -> ()
  | _ -> Alcotest.fail "disabled model must hedge");
  check_bool "flag readable" false (Gr_policy.Linnos.enabled m)

let test_linnos_retrain_adapts () =
  let devices, m = young_model () in
  Array.iter (fun dev -> Gr_kernel.Ssd.set_profile dev Gr_kernel.Ssd.aged_profile) devices;
  let stale = Gr_policy.Linnos.holdout_accuracy m in
  Gr_policy.Linnos.retrain m;
  check_int "retrain counted" 1 (Gr_policy.Linnos.retrain_count m);
  let fresh = Gr_policy.Linnos.holdout_accuracy m in
  check_bool "retrained at least as good as stale" true (fresh >= stale -. 0.05);
  check_bool "fresh model accurate on new regime" true (fresh > 0.85)

let test_linnos_training_features_exposed () =
  let _, m = young_model () in
  let feats = Gr_policy.Linnos.training_features m in
  check_bool "non-empty" true (Array.length feats > 100);
  check_int "feature dim" 6 (Array.length feats.(0));
  check_bool "inference flops positive" true (Gr_policy.Linnos.inference_flops m > 0)

(* ---------- Tiering ---------- *)

let test_tiering_beats_random_guess () =
  let rng = Rng.create 31 in
  let gen = Gr_workload.Mem_trace.zipfian ~rng ~n_pages:1024 () in
  let trace = Array.init 20_000 (fun _ -> Gr_workload.Mem_trace.next gen) in
  let m = Gr_policy.Tiering.train ~rng ~trace () in
  (* Hot page (high count, short gap): promote. First touch of a
     cold page: don't. *)
  check_bool "hot page promoted" true (Gr_policy.Tiering.predict_promote m [| 100.; 0.3; 1. |]);
  check_bool "cold page not promoted" false
    (Gr_policy.Tiering.predict_promote m [| 1.; 1e9; 1. |])

(* ---------- Cache policy ---------- *)

let run_cache_workload ~policy ~trace ~hooks =
  let cache = Gr_kernel.Cache.create ~hooks ~capacity:64 in
  (match policy with
  | Some p ->
    Gr_kernel.Policy_slot.install (Gr_kernel.Cache.slot cache)
      ~name:p.Gr_kernel.Cache.policy_name p
  | None -> ());
  Array.iter (fun key -> ignore (Gr_kernel.Cache.access cache ~key : bool)) trace;
  Gr_kernel.Cache.hit_rate cache

let test_cache_learned_beats_random_on_zipf () =
  let rng = Rng.create 41 in
  let hooks = Gr_kernel.Hooks.create () in
  let gen = Gr_workload.Mem_trace.zipfian ~rng ~n_pages:1024 ~s:1.2 () in
  let train_trace = Array.init 20_000 (fun _ -> Gr_workload.Mem_trace.next gen) in
  let live_trace = Array.init 20_000 (fun _ -> Gr_workload.Mem_trace.next gen) in
  let m = Gr_policy.Cache_policy.train ~rng ~hooks ~trace:train_trace () in
  let learned = run_cache_workload ~policy:(Some (Gr_policy.Cache_policy.policy m)) ~trace:live_trace ~hooks in
  let random =
    run_cache_workload
      ~policy:(Some (Gr_kernel.Cache.random (Rng.create 42)))
      ~trace:live_trace ~hooks:(Gr_kernel.Hooks.create ())
  in
  check_bool "learned beats random on training distribution" true (learned > random)

(* ---------- Slice policy ---------- *)

let test_slice_matches_cfs_in_training_range () =
  let rng = Rng.create 51 in
  let m = Gr_policy.Slice_policy.train ~rng () in
  let predicted = Gr_policy.Slice_policy.predicted_slice_ms m ~nr_runnable:2 ~weight:1024 ~received_ms:10. in
  (* CFS gives 12ms at nr=2; the blind model learns the training
     average, so it must be in a plausible single-digit-to-24ms band. *)
  check_bool "plausible slice" true (predicted > 4. && predicted < 24.)

let test_slice_blind_to_runqueue_until_retrained () =
  let rng = Rng.create 52 in
  let m = Gr_policy.Slice_policy.train ~rng () in
  let at nr = Gr_policy.Slice_policy.predicted_slice_ms m ~nr_runnable:nr ~weight:1024 ~received_ms:10. in
  check_bool "same slice at nr=2 and nr=32 (feature omitted)" true
    (Float.abs (at 2 -. at 32) < 0.01);
  Gr_policy.Slice_policy.retrain m ~max_training_runnable:64;
  check_int "retrain counted" 1 (Gr_policy.Slice_policy.retrain_count m);
  check_bool "slices shrink with load after retrain" true (at 32 < at 2 /. 4.)

(* ---------- Balancer ---------- *)

let test_balancer_imitates_least_loaded () =
  let rng = Rng.create 55 in
  let m = Gr_policy.Balancer_policy.train ~rng ~cpus:4 () in
  check_int "picks the empty queue" 2 (Gr_policy.Balancer_policy.place m ~queue_lens:[| 5; 3; 0; 4 |]);
  check_int "picks the shortest" 1 (Gr_policy.Balancer_policy.place m ~queue_lens:[| 9; 1; 6; 7 |])

let test_balancer_affinity_misplaces_and_retrain_fixes () =
  let rng = Rng.create 56 in
  let m = Gr_policy.Balancer_policy.train ~rng ~cpus:4 () in
  Gr_policy.Balancer_policy.inject_affinity m ~strength:2.0;
  check_int "stale prior funnels to cpu0 despite load" 0
    (Gr_policy.Balancer_policy.place m ~queue_lens:[| 6; 0; 0; 0 |]);
  Gr_policy.Balancer_policy.retrain m;
  check_int "retrain clears the prior" 1
    (Gr_policy.Balancer_policy.place m ~queue_lens:[| 6; 0; 5; 5 |]);
  check_int "retrain counted" 1 (Gr_policy.Balancer_policy.retrain_count m)

(* ---------- REPLACE/RESTORE through the policy slot ---------- *)

(* A learned policy serving from its subsystem's slot, with the slot's
   [use_fallback]/[restore] registered as the policy's REPLACE/RESTORE
   controls. [live] asks the slot's live implementation for its
   decisions on the row's probes; [learned] is what the learned policy
   itself answers, and [fallback] what the slot's bottom entry — the
   subsystem's known-safe policy — must answer. *)
type slot_row = {
  policy : string;
  live : unit -> string list;
  learned : string list;
  fallback : string list;
}

let slot_row kernel ~policy slot impl ~decide ~fallback =
  Gr_kernel.Policy_slot.install slot ~name:("learned-" ^ policy) impl;
  Gr_kernel.Kernel.register_policy kernel ~name:policy
    ~replace:(fun () -> Gr_kernel.Policy_slot.use_fallback slot)
    ~restore:(fun () -> Gr_kernel.Policy_slot.restore slot)
    ();
  {
    policy;
    live = (fun () -> decide (Gr_kernel.Policy_slot.current slot));
    learned = decide impl;
    fallback;
  }

(* The row for [policy] in a fresh kernel, so each row trains only its
   own model and runs as its own test case. *)
let slot_row_for policy =
  let module P = Gr_policy in
  let module K = Gr_kernel in
  let kernel = K.Kernel.create ~seed:53 in
  let rng = Rng.create 53 and engine = kernel.K.Kernel.engine and hooks = kernel.K.Kernel.hooks in
  let zipf_trace () =
    let pages = Gr_workload.Mem_trace.zipfian ~rng ~n_pages:256 () in
    Array.init 5_000 (fun _ -> Gr_workload.Mem_trace.next pages)
  in
  let row =
    match policy with
    | "tiering" ->
        let mm = K.Mm.create ~engine ~hooks ~fast_capacity:64 () in
        let tiering = P.Tiering.train ~rng ~trace:(zipf_trace ()) () in
        (* Second touch promotes on access count >= 2, whatever the gap. *)
        slot_row kernel ~policy (K.Mm.slot mm) (P.Tiering.policy tiering)
          ~decide:(fun (p : K.Mm.policy) ->
            List.map
              (fun f -> string_of_bool (p.promote f))
              [ [| 2.; 5.; 0.1 |]; [| 1.; 1e9; 0.1 |]; [| 2.; 1e9; 1. |] ])
          ~fallback:[ "true"; "false"; "true" ]
    | "cache" ->
        let cache = K.Cache.create ~hooks ~capacity:64 in
        let cache_model = P.Cache_policy.train ~rng ~hooks ~trace:(zipf_trace ()) () in
        (* Key 7 is hot and recent, 8 and 9 were touched once long ago. *)
        List.iter
          (fun key -> K.Hooks.fire hooks "cache:access" [ ("key", float_of_int key) ])
          ([ 8; 9 ] @ List.init 20 (fun _ -> 7));
        (* LRU evicts the first candidate. *)
        slot_row kernel ~policy (K.Cache.slot cache) (P.Cache_policy.policy cache_model)
          ~decide:(fun (p : K.Cache.policy) ->
            [ string_of_int (p.choose_victim ~candidates:[| 7; 8; 9 |]) ])
          ~fallback:[ "7" ]
    | "slice" ->
        let sched = K.Sched.create ~engine ~hooks ~cpus:4 () in
        let slice = P.Slice_policy.train ~rng () in
        (* CFS floors the slice at 1 ms: 24 ms over 24 runnable tasks. *)
        slot_row kernel ~policy (K.Sched.slot sched) (P.Slice_policy.policy slice)
          ~decide:(fun (p : K.Sched.policy) ->
            [ string_of_int (p.slice ~nr_runnable:24 ~task_weight:1024 ~task_received_ms:0.) ])
          ~fallback:[ string_of_int (Time_ns.ms 1) ]
    | "balancer" ->
        let sched = K.Sched.create ~engine ~hooks ~cpus:4 () in
        let balancer = P.Balancer_policy.train ~rng ~cpus:4 () in
        P.Balancer_policy.inject_affinity balancer ~strength:5.0;
        (* Least-loaded ignores the injected CPU 0 prior. *)
        slot_row kernel ~policy (K.Sched.balancer_slot sched)
          (P.Balancer_policy.balancer balancer)
          ~decide:(fun (b : K.Sched.balancer) ->
            [ string_of_int (b.place ~queue_lens:[| 4; 3; 1; 3 |]) ])
          ~fallback:[ "2" ]
    | "cc" ->
        let net = K.Net.create ~engine ~hooks ~capacity_mbps:100. () in
        let cc = P.Cc_controller.train ~rng () in
        (* AIMD halves on loss over 0.1% and grows 2% otherwise. *)
        slot_row kernel ~policy (K.Net.slot net) (P.Cc_controller.controller cc)
          ~decide:(fun (c : K.Net.controller) ->
            List.map
              (fun (rtt_ms, loss) -> Printf.sprintf "%h" (c.adjust ~rtt_ms ~loss))
              [ (50., 0.01); (20., 0.) ])
          ~fallback:[ Printf.sprintf "%h" 0.5; Printf.sprintf "%h" 1.02 ]
    | "readahead" ->
        let fs = K.Fs.create ~hooks ~cache_pages:64 () in
        let readahead = P.Readahead.train ~rng () in
        (* Sequential doubling: four pages per page of run, capped at 32;
           nothing after a seek. *)
        slot_row kernel ~policy (K.Fs.slot fs) (P.Readahead.policy readahead)
          ~decide:(fun (p : K.Fs.policy) ->
            List.map
              (fun f -> string_of_int (p.window f))
              [ [| 1.; 3.; 0.5 |]; [| 1.; 20.; 0.5 |]; [| 37.; 0.; 0.1 |] ])
          ~fallback:[ "12"; "32"; "0" ]
    | _ -> Alcotest.failf "%s: no slot row" policy
  in
  (kernel, row)

(* For a learned policy: REPLACE, fired through the kernel's policy
   registry, puts the slot's fallback in service, and RESTORE the
   learned policy again. *)
let test_slot_replace_restore policy () =
  let kernel, row = slot_row_for policy in
  let fire pick =
    match Gr_kernel.Policy_slot.Registry.find kernel.registry row.policy with
    | Some controls -> pick controls ()
    | None -> Alcotest.failf "%s: not registered" row.policy
  in
  let check_decisions = Alcotest.(check (list string)) in
  check_bool (row.policy ^ ": learned differs from the fallback") true (row.learned <> row.fallback);
  check_decisions (row.policy ^ ": learned in service") row.learned (row.live ());
  fire (fun c -> c.Gr_kernel.Policy_slot.Registry.replace);
  check_decisions (row.policy ^ ": REPLACE serves the fallback") row.fallback (row.live ());
  fire (fun c -> c.Gr_kernel.Policy_slot.Registry.restore);
  check_decisions (row.policy ^ ": RESTORE serves the learned policy") row.learned (row.live ())

(* ---------- Quota advisor ---------- *)

let test_quota_honest_within_bounds () =
  let rng = Rng.create 61 in
  let a = Gr_policy.Quota_advisor.train ~rng ~capacity:200 () in
  for i = 0 to 10 do
    let miss_rate = float_of_int i /. 10. in
    let q = Gr_policy.Quota_advisor.propose a ~miss_rate ~occupancy:0.5 in
    check_bool "within capacity" true (q >= 0 && q <= 210)
  done;
  let low = Gr_policy.Quota_advisor.propose a ~miss_rate:0.05 ~occupancy:0.1 in
  let high = Gr_policy.Quota_advisor.propose a ~miss_rate:0.95 ~occupancy:0.9 in
  check_bool "monotone-ish in miss rate" true (high > low)

let test_quota_drift_goes_out_of_bounds () =
  let rng = Rng.create 62 in
  let a = Gr_policy.Quota_advisor.train ~rng ~capacity:200 () in
  Gr_policy.Quota_advisor.inject_drift a ~scale:4.;
  check_bool "drift recorded" true (Gr_policy.Quota_advisor.drift a = 4.);
  let q = Gr_policy.Quota_advisor.propose a ~miss_rate:0.9 ~occupancy:0.9 in
  check_bool "proposal exceeds capacity" true (q > 200)

(* ---------- CC controller ---------- *)

let test_cc_sane_and_robust () =
  let rng = Rng.create 71 in
  let c = Gr_policy.Cc_controller.train ~rng () in
  let fast = Gr_policy.Cc_controller.rate_multiplier c ~rtt_ms:10. ~loss:0.001 in
  let congested = Gr_policy.Cc_controller.rate_multiplier c ~rtt_ms:110. ~loss:0.12 in
  check_bool "backs off under congestion" true (congested < fast);
  let sens = Gr_policy.Cc_controller.sensitivity_probe c ~rng ~rtt_ms:40. ~loss:0.02 () in
  check_bool "trained model robust" true (sens < 10.)

let test_cc_injection_and_restore () =
  let rng = Rng.create 72 in
  let c = Gr_policy.Cc_controller.train ~rng () in
  Gr_policy.Cc_controller.inject_sensitivity c ~scale:100.;
  let sens = Gr_policy.Cc_controller.sensitivity_probe c ~rng ~rtt_ms:40. ~loss:0.02 () in
  check_bool "injected model fragile" true (sens > 10.);
  Gr_policy.Cc_controller.restore c;
  let healed = Gr_policy.Cc_controller.sensitivity_probe c ~rng ~rtt_ms:40. ~loss:0.02 () in
  check_bool "restore heals" true (healed < 10.)

(* ---------- Inject ---------- *)

let test_inject_flip () =
  let rng = Rng.create 81 in
  let base = { Gr_kernel.Blk.policy_name = "b"; decide = (fun _ -> Gr_kernel.Blk.Trust_primary) } in
  let flipped = Gr_policy.Inject.flip_blk_decisions ~rng ~p:1.0 base in
  check_bool "always flipped" true (flipped.decide [||] = Gr_kernel.Blk.Revoke_now);
  let never = Gr_policy.Inject.flip_blk_decisions ~rng ~p:0.0 base in
  check_bool "never flipped" true (never.decide [||] = Gr_kernel.Blk.Trust_primary)

(* ---------- Workload generators ---------- *)

let test_arrival_rates () =
  let rng = Rng.create 91 in
  let mean_gap arrival =
    let total = ref 0 in
    for _ = 1 to 5_000 do
      total := !total + Gr_workload.Arrival.next_interarrival arrival rng
    done;
    float_of_int !total /. 5_000.
  in
  let poisson = mean_gap (Gr_workload.Arrival.poisson ~rate_per_sec:1000.) in
  check_bool "poisson mean gap ~1ms" true (Float.abs (poisson -. 1e6) /. 1e6 < 0.1);
  let uniform = mean_gap (Gr_workload.Arrival.uniform ~rate_per_sec:1000.) in
  check_bool "uniform exact" true (Float.abs (uniform -. 1e6) < 1.);
  let mmpp =
    mean_gap
      (Gr_workload.Arrival.mmpp ~calm_rate:100. ~burst_rate:10_000. ~mean_calm:(Time_ns.ms 100)
         ~mean_burst:(Time_ns.ms 10))
  in
  check_bool "mmpp between regimes" true (mmpp > 1e5 /. 1e3 && mmpp < 1e7)

let test_mem_trace_shapes () =
  let rng = Rng.create 92 in
  let z = Gr_workload.Mem_trace.zipfian ~rng ~n_pages:100 () in
  for _ = 1 to 1000 do
    let p = Gr_workload.Mem_trace.next z in
    check_bool "in range" true (p >= 0 && p < 100)
  done;
  let s = Gr_workload.Mem_trace.scan ~n_pages:3 in
  (* Sequence explicitly: list-literal evaluation order is unspecified. *)
  let a = Gr_workload.Mem_trace.next s in
  let b = Gr_workload.Mem_trace.next s in
  let c = Gr_workload.Mem_trace.next s in
  let d = Gr_workload.Mem_trace.next s in
  Alcotest.(check (list int)) "scan cycles" [ 0; 1; 2; 0 ] [ a; b; c; d ]

let test_mem_trace_hot_shift () =
  let rng = Rng.create 93 in
  let z = Gr_workload.Mem_trace.zipfian ~rng ~n_pages:1000 ~s:1.5 () in
  let most_common n =
    let counts = Hashtbl.create 64 in
    for _ = 1 to n do
      let p = Gr_workload.Mem_trace.next z in
      Hashtbl.replace counts p (1 + Option.value ~default:0 (Hashtbl.find_opt counts p))
    done;
    fst (Hashtbl.fold (fun k v (bk, bv) -> if v > bv then (k, v) else (bk, bv)) counts (-1, 0))
  in
  let before = most_common 5000 in
  Gr_workload.Mem_trace.shift_hot_set z ~offset:500;
  let after = most_common 5000 in
  check_int "hot page moved by offset" ((before + 500) mod 1000) after

(* ---------- decisions through Scorer.score ----------

   Every other learned policy decides through its [Gr_nn.Scorer]. One
   row per policy: [agree] draws one random decision input and answers
   the policy's model output and the reference, [(Mlp.forward m
   x).(0)] on the input vector [x] built as the policy's training set
   builds it, where [m] is the scorer's net and [x] passes through the
   scorer's scaler where the policy scales; [decide n] runs [n] of the
   policy's own decisions on drawn inputs and sinks their results into
   [sink], so the loop itself allocates nothing. *)

type decision_row = { name : string; agree : Rng.t -> float * float; decide : int -> unit }

let sink = Array.make 1 0.
(* [forward s x]: the reference on an unscaled scorer; [scaled s x]
   scales [x] first. Each fails if the scorer has the other kind. *)
let forward s x =
  if Option.is_some (Gr_nn.Scorer.scaler s) then Alcotest.fail "unexpected scaler";
  (Gr_nn.Mlp.forward (Gr_nn.Scorer.mlp s) x).(0)

let scaled s x =
  match Gr_nn.Scorer.scaler s with
  | None -> Alcotest.fail "scaler expected"
  | Some sc -> (Gr_nn.Mlp.forward (Gr_nn.Scorer.mlp s) (Gr_nn.Scaler.transform sc x)).(0)

let decision_rows () =
  let module P = Gr_policy in
  let rng = Rng.create 61 in
  let u k = Rng.float rng k in
  let draws = Array.init 64 (fun _ -> u 1.) in
  (* [d i k]: the [i]-th of 64 fixed draws, scaled to [0, k). *)
  let d i k = Array.unsafe_get draws (i land 63) *. k in
  let cc = P.Cc_controller.train ~rng ~samples:200 ~epochs:3 () in
  let quota = P.Quota_advisor.train ~rng ~capacity:1000 ~samples:200 ~epochs:3 () in
  let slice = P.Slice_policy.train ~rng ~samples:200 ~epochs:3 () in
  let balancer = P.Balancer_policy.train ~rng ~cpus:4 ~samples:200 ~epochs:3 () in
  let readahead = P.Readahead.train ~rng ~samples:400 ~epochs:3 () in
  let pages = Gr_workload.Mem_trace.zipfian ~rng ~n_pages:256 () in
  let trace = Array.init 2_000 (fun _ -> Gr_workload.Mem_trace.next pages) in
  let tiering = P.Tiering.train ~rng ~trace ~epochs:2 () in
  let hooks = Gr_kernel.Hooks.create () in
  let cache = P.Cache_policy.train ~rng ~hooks ~trace ~epochs:2 () in
  (* The cache's bookkeeping, mirrored: key -> (last access, count). *)
  let tick = ref 0 and seen = Hashtbl.create 64 in
  for _ = 1 to 500 do
    let key = Rng.int rng 48 in
    incr tick;
    let count = match Hashtbl.find_opt seen key with Some (_, c) -> c + 1 | None -> 1 in
    Hashtbl.replace seen key (!tick, count);
    Gr_kernel.Hooks.fire hooks "cache:access" [ ("key", float_of_int key) ]
  done;
  let is0 cpu = if cpu = 0 then 1. else 0. in
  let tier_features i = [| 1. +. d i 40.; d (i + 1) 1e4; d (i + 2) 1. |] in
  let tier_inputs = Array.init 64 tier_features in
  let queue_lens = Array.init 64 (fun i -> Array.init 4 (fun c -> int_of_float (d (i + c) 32.))) in
  [
    {
      name = "cc_controller";
      agree =
        (fun rng ->
          let rtt_ms = Rng.float rng 300. and loss = Rng.float rng 0.4 in
          ( P.Cc_controller.score cc ~rtt_ms ~loss,
            forward (P.Cc_controller.scorer cc) [| rtt_ms /. 120.; loss /. 0.15 |] ));
      decide =
        (fun n ->
          let acc = ref 0. in
          for i = 1 to n do
            acc := !acc +. P.Cc_controller.rate_multiplier cc ~rtt_ms:(d i 300.) ~loss:(d (i + 7) 0.4)
          done;
          sink.(0) <- !acc);
    };
    {
      name = "quota_advisor";
      agree =
        (fun rng ->
          let miss_rate = Rng.float rng 1.5 and occupancy = Rng.float rng 1. in
          ( P.Quota_advisor.score quota ~miss_rate ~occupancy,
            forward (P.Quota_advisor.scorer quota) [| miss_rate; occupancy |] ));
      decide =
        (fun n ->
          let acc = ref 0 in
          for i = 1 to n do
            acc := !acc + P.Quota_advisor.propose quota ~miss_rate:(d i 1.5) ~occupancy:(d (i + 3) 1.)
          done;
          sink.(0) <- float_of_int !acc);
    };
    {
      name = "slice_policy";
      agree =
        (fun rng ->
          (* Retraining switches the runqueue feature on halfway. *)
          if Rng.int rng 64 = 0 && not (P.Slice_policy.retrain_count slice > 0) then
            P.Slice_policy.retrain slice ~max_training_runnable:16;
          let nr_runnable = 1 + Rng.int rng 32
          and weight = 256 + Rng.int rng 2048
          and received_ms = Rng.float rng 100. in
          let nr = if P.Slice_policy.retrain_count slice > 0 then float_of_int nr_runnable /. 8. else 1. in
          ( P.Slice_policy.score slice ~nr_runnable ~weight ~received_ms,
            forward (P.Slice_policy.scorer slice)
              [| nr; float_of_int weight /. 1024.; received_ms /. 100. |] ));
      decide =
        (fun n ->
          let acc = ref 0. in
          for i = 1 to n do
            acc :=
              !acc
              +. P.Slice_policy.predicted_slice_ms slice ~nr_runnable:(1 + (i land 31))
                   ~weight:(256 + (i land 1023)) ~received_ms:(d i 100.)
          done;
          sink.(0) <- !acc);
    };
    {
      name = "balancer_policy";
      agree =
        (fun rng ->
          let len = Rng.int rng 32 and cpu = Rng.int rng 4 in
          ( P.Balancer_policy.score balancer ~len ~cpu,
            forward (P.Balancer_policy.scorer balancer) [| float_of_int len /. 16.; is0 cpu |] ));
      decide =
        (fun n ->
          let acc = ref 0 in
          for i = 1 to n do
            acc := !acc + P.Balancer_policy.place balancer ~queue_lens:(Array.unsafe_get queue_lens (i land 63))
          done;
          sink.(0) <- float_of_int !acc);
    };
    {
      name = "readahead";
      agree =
        (fun rng ->
          let delta = if Rng.bool rng then 1. else Rng.float rng 64.
          and run = Rng.float rng 200.
          and occupancy = Rng.float rng 1. in
          ( P.Readahead.score readahead ~delta ~run ~occupancy,
            forward (P.Readahead.scorer readahead)
              [| (if delta = 1. then 1. else 0.); log1p run; occupancy |] ));
      decide =
        (fun n ->
          let acc = ref 0 in
          for i = 1 to n do
            acc :=
              !acc
              + P.Readahead.predict_window readahead
                  ~delta:(if i land 1 = 0 then 1. else 37.)
                  ~run:(d i 200.) ~occupancy:(d (i + 5) 1.)
          done;
          sink.(0) <- float_of_int !acc);
    };
    {
      name = "tiering";
      agree =
        (fun rng ->
          let f = [| 1. +. Rng.float rng 40.; Rng.float rng 1e9; Rng.float rng 1. |] in
          ( P.Tiering.score tiering f,
            scaled (P.Tiering.scorer tiering) [| log1p f.(0); log1p f.(1); f.(2) |] ));
      decide =
        (fun n ->
          let promoted = ref 0 in
          for i = 1 to n do
            if P.Tiering.predict_promote tiering (Array.unsafe_get tier_inputs (i land 63)) then
              incr promoted
          done;
          sink.(0) <- float_of_int !promoted);
    };
    {
      name = "cache_policy";
      agree =
        (fun rng ->
          let key = Rng.int rng 64 in
          let x =
            match Hashtbl.find_opt seen key with
            | Some (last, count) -> [| float_of_int (!tick - last); float_of_int count |]
            | None -> [| 1e6; 0. |]
          in
          ( P.Cache_policy.predicted_reuse_distance cache key,
            scaled (P.Cache_policy.scorer cache) x ));
      decide =
        (fun n ->
          let acc = ref 0. in
          for i = 1 to n do
            acc := !acc +. P.Cache_policy.predicted_reuse_distance cache (i land 63)
          done;
          sink.(0) <- !acc);
    };
  ]

let test_decisions_through_score () =
  let rng = Rng.create 62 in
  List.iter
    (fun row ->
      for _ = 1 to 500 do
        let got, want = row.agree rng in
        if Int64.bits_of_float got <> Int64.bits_of_float want then
          Alcotest.failf "%s: score %h, forward %h" row.name got want
      done;
      row.decide 1;
      let w0 = Gc.minor_words () in
      row.decide 10_000;
      let words = Gc.minor_words () -. w0 in
      if Build_profile.release && words <> 0. then
        Alcotest.failf "%s: %.0f minor words across 10k decisions" row.name words)
    (decision_rows ())

let suite =
  [
    ( "policy.linnos",
      [
        Alcotest.test_case "learns young regime" `Slow test_linnos_learns_young_regime;
        Alcotest.test_case "policy decisions" `Slow test_linnos_policy_decisions;
        Alcotest.test_case "disabled hedges" `Slow test_linnos_disabled_hedges;
        Alcotest.test_case "copy stands in for training" `Slow test_linnos_copy;
        Alcotest.test_case "copy scores alongside the original" `Quick test_linnos_copy_alongside;
        Alcotest.test_case "linnos decision allocates nothing" `Quick
          test_linnos_decision_allocates_nothing;
        Alcotest.test_case "retrain adapts" `Slow test_linnos_retrain_adapts;
        Alcotest.test_case "training features exposed" `Slow test_linnos_training_features_exposed;
      ] );
    ( "policy.decisions",
      [
        Alcotest.test_case "decisions match forward, allocate 0" `Quick
          test_decisions_through_score;
      ] );
    ( "policy.tiering",
      [
        Alcotest.test_case "sensible promotions" `Slow test_tiering_beats_random_guess;
        Alcotest.test_case "disabled falls back" `Slow (test_slot_replace_restore "tiering");
      ] );
    ( "policy.cache",
      [
        Alcotest.test_case "learned beats random on zipf" `Slow
          test_cache_learned_beats_random_on_zipf;
        Alcotest.test_case "disabled is LRU" `Quick (test_slot_replace_restore "cache");
      ] );
    ( "policy.slice",
      [
        Alcotest.test_case "imitates CFS in range" `Quick test_slice_matches_cfs_in_training_range;
        Alcotest.test_case "blind to runqueue until retrained" `Quick
          test_slice_blind_to_runqueue_until_retrained;
        Alcotest.test_case "disabled is CFS" `Quick (test_slot_replace_restore "slice");
      ] );
    ( "policy.balancer",
      [
        Alcotest.test_case "imitates least-loaded" `Quick test_balancer_imitates_least_loaded;
        Alcotest.test_case "affinity misplaces; retrain fixes" `Quick
          test_balancer_affinity_misplaces_and_retrain_fixes;
        Alcotest.test_case "disabled is least-loaded" `Quick
          (test_slot_replace_restore "balancer");
      ] );
    ( "policy.quota",
      [
        Alcotest.test_case "honest within bounds" `Quick test_quota_honest_within_bounds;
        Alcotest.test_case "drift out of bounds" `Quick test_quota_drift_goes_out_of_bounds;
      ] );
    ( "policy.cc",
      [
        Alcotest.test_case "sane and robust" `Quick test_cc_sane_and_robust;
        Alcotest.test_case "injection and restore" `Quick test_cc_injection_and_restore;
        Alcotest.test_case "disabled is AIMD" `Quick (test_slot_replace_restore "cc");
      ] );
    ( "policy.slots",
      [
        Alcotest.test_case "readahead disabled is sequential doubling" `Quick
          (test_slot_replace_restore "readahead");
      ] );
    ("policy.inject", [ Alcotest.test_case "flip decisions" `Quick test_inject_flip ]);
    ( "workload",
      [
        Alcotest.test_case "arrival rates" `Quick test_arrival_rates;
        Alcotest.test_case "mem trace shapes" `Quick test_mem_trace_shapes;
        Alcotest.test_case "hot set shift" `Quick test_mem_trace_hot_shift;
      ] );
  ]
