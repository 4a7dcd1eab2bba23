(* Tests for gr_kernel: hooks, policy slots, SSD model, block layer,
   scheduler, memory manager, cache. *)

open Gr_util

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* ---------- Hooks ---------- *)

let test_hooks_fire_and_count () =
  let h = Gr_kernel.Hooks.create () in
  let seen = ref [] in
  ignore (Gr_kernel.Hooks.subscribe h "a" (fun args -> seen := args :: !seen)
      : Gr_kernel.Hooks.subscription);
  Gr_kernel.Hooks.fire h "a" [ ("x", 1.) ];
  Gr_kernel.Hooks.fire h "a" [ ("x", 2.) ];
  Gr_kernel.Hooks.fire h "b" [];
  check_int "a fired twice" 2 (Gr_kernel.Hooks.fire_count h "a");
  check_int "b fired once" 1 (Gr_kernel.Hooks.fire_count h "b");
  check_int "unknown hook" 0 (Gr_kernel.Hooks.fire_count h "zzz");
  check_int "listener saw both" 2 (List.length !seen)

let test_hooks_subscription_order () =
  let h = Gr_kernel.Hooks.create () in
  let order = ref [] in
  ignore (Gr_kernel.Hooks.subscribe h "x" (fun _ -> order := 1 :: !order)
      : Gr_kernel.Hooks.subscription);
  ignore (Gr_kernel.Hooks.subscribe h "x" (fun _ -> order := 2 :: !order)
      : Gr_kernel.Hooks.subscription);
  Gr_kernel.Hooks.fire h "x" [];
  Alcotest.(check (list int)) "in subscription order" [ 1; 2 ] (List.rev !order)

let test_hooks_unsubscribe () =
  let h = Gr_kernel.Hooks.create () in
  let count = ref 0 in
  let sub = Gr_kernel.Hooks.subscribe h "x" (fun _ -> incr count) in
  Gr_kernel.Hooks.fire h "x" [];
  Gr_kernel.Hooks.unsubscribe h sub;
  Gr_kernel.Hooks.fire h "x" [];
  check_int "stopped listening" 1 !count

(* A raising listener is contained: the firing goes on to the listeners
   after it, the exception is counted, and after [max_strikes] faults
   the listener is quarantined and never called again. *)
let test_hooks_contain_and_quarantine () =
  let module H = Gr_kernel.Hooks in
  let h = H.create () in
  H.set_max_strikes h 2;
  let calls = Array.make 3 0 in
  let listener i raises =
    ignore
      (H.subscribe h "x" (fun _ ->
           calls.(i) <- calls.(i) + 1;
           if raises then failwith "listener bug")
        : H.subscription)
  in
  listener 0 false;
  listener 1 true;
  listener 2 false;
  H.fire h "x" [];
  check_int "counted" 1 (H.contained_exn_count h);
  check_int "not yet quarantined" 0 (H.quarantined_count h);
  check_int "the listener after it ran" 1 calls.(2);
  for _ = 1 to 3 do
    H.fire h "x" []
  done;
  check_int "struck twice, then never called" 2 calls.(1);
  check_int "counted once per fault" 2 (H.contained_exn_count h);
  check_int "quarantined" 1 (H.quarantined_count h);
  check_int "first listener every time" 4 calls.(0);
  check_int "last listener every time" 4 calls.(2)

(* ---------- Policy_slot ---------- *)

let test_slot_lifecycle () =
  let slot = Gr_kernel.Policy_slot.create ~name:"s" ~fallback:("safe", 0) in
  check_string "starts on fallback name" "safe" (Gr_kernel.Policy_slot.current_name slot);
  Gr_kernel.Policy_slot.install slot ~name:"learned" 1;
  check_int "learned live" 1 (Gr_kernel.Policy_slot.current slot);
  check_bool "not on fallback" false (Gr_kernel.Policy_slot.on_fallback slot);
  Gr_kernel.Policy_slot.use_fallback slot;
  check_int "fallback live" 0 (Gr_kernel.Policy_slot.current slot);
  check_bool "on fallback" true (Gr_kernel.Policy_slot.on_fallback slot);
  Gr_kernel.Policy_slot.use_fallback slot (* idempotent *);
  check_int "still fallback" 0 (Gr_kernel.Policy_slot.current slot);
  Gr_kernel.Policy_slot.restore slot;
  check_int "restored" 1 (Gr_kernel.Policy_slot.current slot);
  Gr_kernel.Policy_slot.restore slot (* idempotent *);
  check_int "still restored" 1 (Gr_kernel.Policy_slot.current slot);
  Alcotest.(check (list (pair string string)))
    "transitions recorded"
    [ ("safe", "learned"); ("learned", "safe"); ("safe", "learned") ]
    (Gr_kernel.Policy_slot.transitions slot)

let test_registry () =
  let reg = Gr_kernel.Policy_slot.Registry.create () in
  let replaced = ref false in
  Gr_kernel.Policy_slot.Registry.register reg "p"
    {
      replace = (fun () -> replaced := true);
      restore = (fun () -> ());
      retrain = Gr_kernel.Policy_slot.Registry.no_retrain;
    };
  (match Gr_kernel.Policy_slot.Registry.find reg "p" with
  | Some c -> c.replace ()
  | None -> Alcotest.fail "registered policy not found");
  check_bool "replace closure ran" true !replaced;
  check_bool "unknown absent" true (Gr_kernel.Policy_slot.Registry.find reg "q" = None)

(* ---------- Ssd ---------- *)

let test_ssd_latency_positive_and_fastish () =
  let rng = Rng.create 1 in
  let dev = Gr_kernel.Ssd.create ~rng ~profile:Gr_kernel.Ssd.young_profile ~id:0 in
  for i = 0 to 999 do
    let lat = Gr_kernel.Ssd.draw_latency dev ~now:(Time_ns.us (i * 100)) in
    check_bool "positive" true (lat > 0)
  done

let test_ssd_gc_inflates_latency () =
  let rng = Rng.create 2 in
  let dev = Gr_kernel.Ssd.create ~rng ~profile:Gr_kernel.Ssd.aged_profile ~id:0 in
  (* Sample many instants; GC instants must show much higher latency. *)
  let in_gc = ref [] and out_gc = ref [] in
  for i = 0 to 4999 do
    let now = Time_ns.us (i * 37) in
    let lat = float_of_int (Gr_kernel.Ssd.draw_latency dev ~now) in
    if Gr_kernel.Ssd.in_gc dev ~now then in_gc := lat :: !in_gc else out_gc := lat :: !out_gc
  done;
  check_bool "both regimes sampled" true (!in_gc <> [] && !out_gc <> []);
  let mean l = Stats.mean (Array.of_list l) in
  check_bool "GC at least 5x slower" true (mean !in_gc > 5. *. mean !out_gc)

let test_ssd_gc_duty_cycle () =
  let rng = Rng.create 3 in
  let dev = Gr_kernel.Ssd.create ~rng ~profile:Gr_kernel.Ssd.aged_profile ~id:0 in
  let gc = ref 0 and n = 10_000 in
  for i = 0 to n - 1 do
    if Gr_kernel.Ssd.in_gc dev ~now:(Time_ns.us (i * 11)) then incr gc
  done;
  let duty = float_of_int !gc /. float_of_int n in
  (* aged profile: 3ms of every 12ms. *)
  check_bool "duty near 25%" true (Float.abs (duty -. 0.25) < 0.05)

let test_ssd_queue_depth_penalty () =
  let rng = Rng.create 4 in
  let profile = { Gr_kernel.Ssd.young_profile with latency_sigma = 0.0001; gc_period = 0 } in
  let dev = Gr_kernel.Ssd.create ~rng ~profile ~id:0 in
  let base = Gr_kernel.Ssd.draw_latency dev ~now:0 in
  for _ = 1 to 10 do
    Gr_kernel.Ssd.begin_io dev
  done;
  let queued = Gr_kernel.Ssd.draw_latency dev ~now:0 in
  check_bool "queue adds ~60us" true
    (Time_ns.to_float_us queued -. Time_ns.to_float_us base > 50.)

let test_ssd_history () =
  let rng = Rng.create 5 in
  let dev = Gr_kernel.Ssd.create ~rng ~profile:Gr_kernel.Ssd.young_profile ~id:0 in
  Gr_kernel.Ssd.begin_io dev;
  Gr_kernel.Ssd.end_io dev ~latency:(Time_ns.us 100);
  Gr_kernel.Ssd.begin_io dev;
  Gr_kernel.Ssd.end_io dev ~latency:(Time_ns.us 200);
  let recent = Gr_kernel.Ssd.recent_latencies_us dev ~n:4 in
  Alcotest.(check (array (float 0.01))) "zero-padded, newest last" [| 0.; 0.; 100.; 200. |] recent;
  check_int "completed" 2 (Gr_kernel.Ssd.completed dev);
  check_int "queue drained" 0 (Gr_kernel.Ssd.queue_depth dev)

(* ---------- Blk ---------- *)

let make_blk ?(n = 2) ?(seed = 7) () =
  let engine = Gr_sim.Engine.create () in
  let hooks = Gr_kernel.Hooks.create () in
  let rng = Rng.create seed in
  let devices =
    Array.init n (fun i -> Gr_kernel.Ssd.create ~rng ~profile:Gr_kernel.Ssd.young_profile ~id:i)
  in
  let blk = Gr_kernel.Blk.create ~engine ~hooks ~devices () in
  (engine, hooks, devices, blk)

let test_blk_needs_two_devices () =
  let engine = Gr_sim.Engine.create () in
  let hooks = Gr_kernel.Hooks.create () in
  let rng = Rng.create 1 in
  let devices = [| Gr_kernel.Ssd.create ~rng ~profile:Gr_kernel.Ssd.young_profile ~id:0 |] in
  Alcotest.check_raises "one device rejected"
    (Invalid_argument "Blk.create: need at least two devices") (fun () ->
      ignore (Gr_kernel.Blk.create ~engine ~hooks ~devices () : Gr_kernel.Blk.t))

let test_blk_completion_via_engine () =
  let engine, _, _, blk = make_blk () in
  let results = ref [] in
  for i = 0 to 99 do
    Gr_kernel.Blk.submit_read blk ~primary:i ~on_complete:(fun r -> results := r :: !results)
  done;
  check_int "nothing completes before running" 0 (List.length !results);
  Gr_sim.Engine.run engine;
  check_int "all complete" 100 (List.length !results);
  check_int "counter matches" 100 (Gr_kernel.Blk.ios_completed blk);
  List.iter
    (fun (r : Gr_kernel.Blk.io_result) -> check_bool "latency positive" true (r.latency > 0))
    !results

let test_blk_hedge_caps_slow_ios () =
  let engine, _, devices, blk = make_blk ~seed:9 () in
  (* Age the primary so slow I/Os are common; the hedge must bound
     service at timeout + replica latency + overhead. *)
  Array.iter (fun d -> Gr_kernel.Ssd.set_profile d Gr_kernel.Ssd.aged_profile) devices;
  let worst = ref 0. in
  for _ = 0 to 499 do
    Gr_kernel.Blk.submit_read blk ~primary:0 ~on_complete:(fun r ->
        worst := Float.max !worst (Time_ns.to_float_us r.latency))
  done;
  Gr_sim.Engine.run engine;
  check_bool "hedge fired at least once" true (Gr_kernel.Blk.hedge_fires blk > 0);
  (* timeout 300 + aged slow replica (up to ~2.5ms) + overhead; the
     unhedged primary would be the same magnitude, but hedging two
     slow devices back to back stays under ~6ms. *)
  check_bool "worst bounded" true (!worst < 6000.)

let test_blk_trust_primary_counts_false_submits () =
  let engine, _, devices, blk = make_blk ~seed:10 () in
  Array.iter (fun d -> Gr_kernel.Ssd.set_profile d Gr_kernel.Ssd.aged_profile) devices;
  Gr_kernel.Policy_slot.install (Gr_kernel.Blk.slot blk) ~name:"trusting"
    { Gr_kernel.Blk.policy_name = "trusting"; decide = (fun _ -> Gr_kernel.Blk.Trust_primary) };
  for _ = 0 to 499 do
    Gr_kernel.Blk.submit_read blk ~primary:0 ~on_complete:(fun _ -> ())
  done;
  Gr_sim.Engine.run engine;
  check_bool "false submits counted" true (Gr_kernel.Blk.false_submits blk > 50);
  check_int "no false revokes" 0 (Gr_kernel.Blk.false_revokes blk)

let test_blk_revoke_now_counts_false_revokes () =
  let engine, _, _, blk = make_blk ~seed:11 () in
  Gr_kernel.Policy_slot.install (Gr_kernel.Blk.slot blk) ~name:"paranoid"
    { Gr_kernel.Blk.policy_name = "paranoid"; decide = (fun _ -> Gr_kernel.Blk.Revoke_now) };
  for _ = 0 to 199 do
    Gr_kernel.Blk.submit_read blk ~primary:0 ~on_complete:(fun r ->
        check_bool "redirected" true r.redirected)
  done;
  Gr_sim.Engine.run engine;
  (* Young devices are almost always fast, so revoking is almost
     always wasted. *)
  check_bool "false revokes dominate" true (Gr_kernel.Blk.false_revokes blk > 150);
  check_int "all redirected" 200 (Gr_kernel.Blk.redirects blk)

let test_blk_counterfactual_published () =
  let engine, hooks, devices, blk = make_blk ~seed:12 () in
  Array.iter (fun d -> Gr_kernel.Ssd.set_profile d Gr_kernel.Ssd.aged_profile) devices;
  Gr_kernel.Policy_slot.install (Gr_kernel.Blk.slot blk) ~name:"trusting"
    { Gr_kernel.Blk.policy_name = "trusting"; decide = (fun _ -> Gr_kernel.Blk.Trust_primary) };
  let served = ref [] and counter = ref [] in
  ignore
    (Gr_kernel.Hooks.subscribe hooks "blk:io_complete" (fun args ->
         served := List.assoc "latency_us" args :: !served;
         counter := List.assoc "hedge_counterfactual_us" args :: !counter)
      : Gr_kernel.Hooks.subscription);
  for _ = 0 to 499 do
    Gr_kernel.Blk.submit_read blk ~primary:0 ~on_complete:(fun _ -> ())
  done;
  Gr_sim.Engine.run engine;
  check_int "counterfactual on every completion" 500 (List.length !counter);
  (* On an aged primary, trusting blindly must lose to the hedge
     counterfactual on average — exactly the P4 signal. *)
  let mean l = Stats.mean (Array.of_list l) in
  check_bool "trusting worse than hedge counterfactual" true (mean !served > mean !counter);
  (* The counterfactual is bounded below by fast service and is never
     absurd: timeout + replica + overhead tops out within a few ms. *)
  List.iter (fun c -> check_bool "counterfactual sane" true (c > 0. && c < 10_000.)) !counter

let test_blk_features_shape () =
  let _, _, _, blk = make_blk () in
  let f = Gr_kernel.Blk.features blk ~primary:0 in
  check_int "feature dim" (Gr_kernel.Blk.feature_dim blk) (Array.length f);
  check_int "default dim" 6 (Array.length f)

let test_blk_hooks_published () =
  let engine, hooks, _, blk = make_blk () in
  let completes = ref 0 in
  ignore
    (Gr_kernel.Hooks.subscribe hooks "blk:io_complete" (fun args ->
         incr completes;
         check_bool "latency arg present" true (List.mem_assoc "latency_us" args);
         check_bool "false_submit arg present" true (List.mem_assoc "false_submit" args))
      : Gr_kernel.Hooks.subscription);
  for _ = 0 to 9 do
    Gr_kernel.Blk.submit_read blk ~primary:0 ~on_complete:(fun _ -> ())
  done;
  Gr_sim.Engine.run engine;
  check_int "hook fired per completion" 10 !completes

(* ---------- Sched ---------- *)

let make_sched () =
  let engine = Gr_sim.Engine.create () in
  let hooks = Gr_kernel.Hooks.create () in
  (engine, hooks, Gr_kernel.Sched.create ~engine ~hooks ())

let test_sched_completes_tasks () =
  let engine, _, sched = make_sched () in
  let t1 = Gr_kernel.Sched.spawn sched ~name:"a" ~demand:(Time_ns.ms 10) () in
  let t2 = Gr_kernel.Sched.spawn sched ~name:"b" ~demand:(Time_ns.ms 10) () in
  Gr_sim.Engine.run_until engine (Time_ns.ms 100);
  check_bool "t1 complete" true (t1.state = Gr_kernel.Sched.Complete);
  check_bool "t2 complete" true (t2.state = Gr_kernel.Sched.Complete);
  check_int "received all demand" (Time_ns.ms 10) t1.received

let test_sched_fair_sharing () =
  let engine, _, sched = make_sched () in
  let a = Gr_kernel.Sched.spawn sched ~name:"a" ~demand:(Time_ns.sec 10) () in
  let b = Gr_kernel.Sched.spawn sched ~name:"b" ~demand:(Time_ns.sec 10) () in
  Gr_sim.Engine.run_until engine (Time_ns.sec 1);
  let ra = Time_ns.to_float_ms a.received and rb = Time_ns.to_float_ms b.received in
  check_bool "equal weights share CPU" true (Float.abs (ra -. rb) /. Float.max ra rb < 0.1)

let test_sched_weighted_sharing () =
  let engine, _, sched = make_sched () in
  let heavy = Gr_kernel.Sched.spawn sched ~name:"h" ~weight:3072 ~demand:(Time_ns.sec 10) () in
  let light = Gr_kernel.Sched.spawn sched ~name:"l" ~weight:1024 ~demand:(Time_ns.sec 10) () in
  Gr_sim.Engine.run_until engine (Time_ns.sec 1);
  let ratio = Time_ns.to_float_ms heavy.received /. Time_ns.to_float_ms light.received in
  check_bool "3x weight gets ~3x CPU" true (ratio > 2.2 && ratio < 3.8)

let test_sched_starvation_accounting () =
  let engine, _, sched = make_sched () in
  (* A policy that hands out 200ms slices regardless of load. *)
  Gr_kernel.Policy_slot.install (Gr_kernel.Sched.slot sched) ~name:"hog"
    {
      Gr_kernel.Sched.policy_name = "hog";
      slice = (fun ~nr_runnable:_ ~task_weight:_ ~task_received_ms:_ -> Time_ns.ms 200);
    };
  for i = 1 to 5 do
    ignore
      (Gr_kernel.Sched.spawn sched ~name:(string_of_int i) ~demand:(Time_ns.sec 2) ()
        : Gr_kernel.Sched.task)
  done;
  Gr_sim.Engine.run_until engine (Time_ns.ms 350);
  (* At t=350ms with 200ms slices, some task has waited >= 300ms. *)
  check_bool "starvation visible" true (Gr_kernel.Sched.max_wait_ms sched >= 300.)

let test_sched_deprioritize_and_kill () =
  let engine, _, sched = make_sched () in
  let batch = Gr_kernel.Sched.spawn sched ~name:"b" ~cls:"batch" ~demand:(Time_ns.sec 10) () in
  let inter =
    Gr_kernel.Sched.spawn sched ~name:"i" ~cls:"interactive" ~demand:(Time_ns.sec 10) ()
  in
  check_int "one task deprioritized" 1
    (Gr_kernel.Sched.deprioritize_class sched ~cls:"batch" ~weight:128);
  check_int "weight applied" 128 batch.weight;
  Gr_sim.Engine.run_until engine (Time_ns.sec 1);
  check_bool "deprioritized gets less CPU" true (batch.received < inter.received);
  let killed = Gr_kernel.Sched.kill_class sched ~cls:"batch" in
  check_bool "batch killed (unless mid-run)" true (killed <= 1);
  check_int "unknown class kills none" 0 (Gr_kernel.Sched.kill_class sched ~cls:"nope")

let test_sched_smp_parallelism () =
  let engine = Gr_sim.Engine.create () in
  let hooks = Gr_kernel.Hooks.create () in
  let sched = Gr_kernel.Sched.create ~engine ~hooks ~cpus:4 () in
  check_int "cpu count" 4 (Gr_kernel.Sched.cpus sched);
  (* Four CPU-bound tasks on four CPUs: all finish in ~demand time. *)
  let ts =
    List.init 4 (fun i ->
        Gr_kernel.Sched.spawn sched ~name:(string_of_int i) ~demand:(Time_ns.ms 100) ())
  in
  Gr_sim.Engine.run_until engine (Time_ns.ms 110);
  List.iter
    (fun (t : Gr_kernel.Sched.task) ->
      check_bool "finished in parallel" true (t.state = Gr_kernel.Sched.Complete))
    ts;
  check_int "placed on distinct cpus" 4
    (List.sort_uniq compare (List.map (fun (t : Gr_kernel.Sched.task) -> t.cpu) ts)
    |> List.length)

let test_sched_wasted_cores_detection_and_rebalance () =
  let engine = Gr_sim.Engine.create () in
  let hooks = Gr_kernel.Hooks.create () in
  let sched = Gr_kernel.Sched.create ~engine ~hooks ~cpus:4 () in
  (* Everything lands on CPU 0. *)
  Gr_kernel.Policy_slot.install
    (Gr_kernel.Sched.balancer_slot sched)
    ~name:"pin0"
    { Gr_kernel.Sched.balancer_name = "pin0"; place = (fun ~queue_lens:_ -> 0) };
  for i = 1 to 6 do
    ignore
      (Gr_kernel.Sched.spawn sched ~name:(string_of_int i) ~demand:(Time_ns.sec 1) ()
        : Gr_kernel.Sched.task)
  done;
  Gr_sim.Engine.run_until engine (Time_ns.ms 50);
  check_int "three cores wasted" 3 (Gr_kernel.Sched.wasted_cores sched);
  let moved = Gr_kernel.Sched.rebalance sched in
  check_bool "rebalance migrates queued tasks" true (moved > 0);
  Gr_sim.Engine.run_until engine (Time_ns.ms 100);
  check_int "no wasted cores after rebalance" 0 (Gr_kernel.Sched.wasted_cores sched)

let test_sched_single_cpu_never_wastes () =
  let engine = Gr_sim.Engine.create () in
  let hooks = Gr_kernel.Hooks.create () in
  let sched = Gr_kernel.Sched.create ~engine ~hooks () in
  for i = 1 to 4 do
    ignore
      (Gr_kernel.Sched.spawn sched ~name:(string_of_int i) ~demand:(Time_ns.ms 100) ()
        : Gr_kernel.Sched.task)
  done;
  Gr_sim.Engine.run_until engine (Time_ns.ms 50);
  check_int "single cpu: zero by definition" 0 (Gr_kernel.Sched.wasted_cores sched)

let test_sched_bogus_balancer_clamped () =
  let engine = Gr_sim.Engine.create () in
  let hooks = Gr_kernel.Hooks.create () in
  let sched = Gr_kernel.Sched.create ~engine ~hooks ~cpus:2 () in
  Gr_kernel.Policy_slot.install
    (Gr_kernel.Sched.balancer_slot sched)
    ~name:"bogus"
    { Gr_kernel.Sched.balancer_name = "bogus"; place = (fun ~queue_lens:_ -> 99) };
  let t = Gr_kernel.Sched.spawn sched ~name:"x" ~demand:(Time_ns.ms 10) () in
  check_bool "clamped into range" true (t.cpu >= 0 && t.cpu < 2);
  Gr_sim.Engine.run_until engine (Time_ns.ms 50);
  check_bool "still runs" true (t.state = Gr_kernel.Sched.Complete)

let test_sched_received_by_class () =
  let engine, _, sched = make_sched () in
  ignore (Gr_kernel.Sched.spawn sched ~name:"a" ~cls:"x" ~demand:(Time_ns.ms 50) ()
      : Gr_kernel.Sched.task);
  ignore (Gr_kernel.Sched.spawn sched ~name:"b" ~cls:"y" ~demand:(Time_ns.ms 50) ()
      : Gr_kernel.Sched.task);
  Gr_sim.Engine.run_until engine (Time_ns.sec 1);
  let by_class = Gr_kernel.Sched.received_by_class sched in
  check_int "two classes" 2 (List.length by_class);
  List.iter (fun (_, s) -> check_bool "50ms each" true (Float.abs (s -. 0.05) < 1e-6)) by_class

(* ---------- Mm ---------- *)

let make_mm ?(fast_capacity = 4) () =
  let engine = Gr_sim.Engine.create () in
  let hooks = Gr_kernel.Hooks.create () in
  (engine, hooks, Gr_kernel.Mm.create ~engine ~hooks ~fast_capacity ())

let test_mm_second_touch_promotion () =
  let _, _, mm = make_mm () in
  let slow1 = Gr_kernel.Mm.access mm ~page:1 in
  let slow2 = Gr_kernel.Mm.access mm ~page:1 in
  let fast = Gr_kernel.Mm.access mm ~page:1 in
  check_bool "first access slow" true (slow1 >= Time_ns.us 2);
  check_bool "second access promotes (pays promote cost)" true (slow2 > slow1);
  check_bool "third access fast" true (fast < Time_ns.us 1);
  check_int "one promotion" 1 (Gr_kernel.Mm.promotions mm)

let test_mm_lru_eviction_on_capacity () =
  let _, _, mm = make_mm ~fast_capacity:2 () in
  let promote page =
    ignore (Gr_kernel.Mm.access mm ~page : Time_ns.t);
    ignore (Gr_kernel.Mm.access mm ~page : Time_ns.t)
  in
  promote 1;
  promote 2;
  promote 3;
  (* page 1 is the LRU victim *)
  check_int "occupancy capped" 2 (Gr_kernel.Mm.fast_occupancy mm);
  let lat1 = Gr_kernel.Mm.access mm ~page:3 in
  check_bool "page 3 fast" true (lat1 < Time_ns.us 1)

let test_mm_hit_fraction () =
  let _, _, mm = make_mm () in
  ignore (Gr_kernel.Mm.access mm ~page:1 : Time_ns.t);
  ignore (Gr_kernel.Mm.access mm ~page:1 : Time_ns.t);
  ignore (Gr_kernel.Mm.access mm ~page:1 : Time_ns.t);
  ignore (Gr_kernel.Mm.access mm ~page:1 : Time_ns.t);
  check_bool "hit fraction = 2/4" true (Float.abs (Gr_kernel.Mm.hit_fraction mm -. 0.5) < 1e-9)

let test_mm_quota () =
  let _, hooks, mm = make_mm ~fast_capacity:4 () in
  let quota_events = ref [] in
  ignore
    (Gr_kernel.Hooks.subscribe hooks "mm:quota" (fun args -> quota_events := args :: !quota_events)
      : Gr_kernel.Hooks.subscription);
  check_bool "legal quota applied" true (Gr_kernel.Mm.advise_quota mm ~requested:2 = `Applied 2);
  check_bool "oversized rejected" true (Gr_kernel.Mm.advise_quota mm ~requested:10 = `Rejected);
  check_bool "negative rejected" true (Gr_kernel.Mm.advise_quota mm ~requested:(-1) = `Rejected);
  check_int "every request published" 3 (List.length !quota_events)

let test_mm_quota_shrink_evicts () =
  let _, _, mm = make_mm ~fast_capacity:4 () in
  let promote page =
    ignore (Gr_kernel.Mm.access mm ~page : Time_ns.t);
    ignore (Gr_kernel.Mm.access mm ~page : Time_ns.t)
  in
  promote 1;
  promote 2;
  promote 3;
  check_int "three resident" 3 (Gr_kernel.Mm.fast_occupancy mm);
  ignore (Gr_kernel.Mm.advise_quota mm ~requested:1 = `Applied 1 : bool);
  check_int "evicted to quota" 1 (Gr_kernel.Mm.fast_occupancy mm)

(* ---------- Cache ---------- *)

let test_cache_lru () =
  let hooks = Gr_kernel.Hooks.create () in
  let c = Gr_kernel.Cache.create ~hooks ~capacity:2 in
  check_bool "miss 1" false (Gr_kernel.Cache.access c ~key:1);
  check_bool "miss 2" false (Gr_kernel.Cache.access c ~key:2);
  check_bool "hit 1" true (Gr_kernel.Cache.access c ~key:1);
  (* 2 is now LRU; inserting 3 evicts it. *)
  check_bool "miss 3" false (Gr_kernel.Cache.access c ~key:3);
  check_bool "2 evicted" false (Gr_kernel.Cache.contains c ~key:2);
  check_bool "1 kept" true (Gr_kernel.Cache.contains c ~key:1)

let test_cache_hit_rate_and_reset () =
  let hooks = Gr_kernel.Hooks.create () in
  let c = Gr_kernel.Cache.create ~hooks ~capacity:4 in
  ignore (Gr_kernel.Cache.access c ~key:1 : bool);
  ignore (Gr_kernel.Cache.access c ~key:1 : bool);
  check_bool "hit rate 1/2" true (Float.abs (Gr_kernel.Cache.hit_rate c -. 0.5) < 1e-9);
  Gr_kernel.Cache.reset_stats c;
  check_int "stats reset" 0 (Gr_kernel.Cache.accesses c)

let test_cache_bogus_victim_falls_back () =
  let hooks = Gr_kernel.Hooks.create () in
  let c = Gr_kernel.Cache.create ~hooks ~capacity:2 in
  Gr_kernel.Policy_slot.install (Gr_kernel.Cache.slot c) ~name:"bogus"
    { Gr_kernel.Cache.policy_name = "bogus"; choose_victim = (fun ~candidates:_ -> 424242) };
  ignore (Gr_kernel.Cache.access c ~key:1 : bool);
  ignore (Gr_kernel.Cache.access c ~key:2 : bool);
  ignore (Gr_kernel.Cache.access c ~key:3 : bool);
  check_int "size stays at capacity" 2 (Gr_kernel.Cache.size c);
  check_bool "victim was real LRU" false (Gr_kernel.Cache.contains c ~key:1)

let test_cache_policies_ordering_on_zipf () =
  (* LRU must beat random, and random must beat MRU, on a zipfian
     workload — the quality ordering P4 relies on. *)
  let run policy =
    let rng = Rng.create 33 in
    let hooks = Gr_kernel.Hooks.create () in
    let c = Gr_kernel.Cache.create ~hooks ~capacity:64 in
    (match policy with
    | None -> ()
    | Some p ->
      Gr_kernel.Policy_slot.install (Gr_kernel.Cache.slot c) ~name:p.Gr_kernel.Cache.policy_name p);
    let zipf = Rng.Zipf.create ~n:1024 ~s:1.1 in
    for _ = 1 to 20_000 do
      ignore (Gr_kernel.Cache.access c ~key:(Rng.Zipf.sample zipf rng) : bool)
    done;
    Gr_kernel.Cache.hit_rate c
  in
  let lru = run None in
  let rnd = run (Some (Gr_kernel.Cache.random (Rng.create 44))) in
  let mru = run (Some Gr_policy.Inject.mru_eviction) in
  check_bool "lru > random" true (lru > rnd);
  check_bool "random > mru" true (rnd > mru)

let suite =
  [
    ( "kernel.hooks",
      [
        Alcotest.test_case "fire and count" `Quick test_hooks_fire_and_count;
        Alcotest.test_case "subscription order" `Quick test_hooks_subscription_order;
        Alcotest.test_case "unsubscribe" `Quick test_hooks_unsubscribe;
        Alcotest.test_case "contain and quarantine" `Quick test_hooks_contain_and_quarantine;
      ] );
    ( "kernel.policy_slot",
      [
        Alcotest.test_case "lifecycle" `Quick test_slot_lifecycle;
        Alcotest.test_case "registry" `Quick test_registry;
      ] );
    ( "kernel.ssd",
      [
        Alcotest.test_case "latency positive" `Quick test_ssd_latency_positive_and_fastish;
        Alcotest.test_case "GC inflates latency" `Quick test_ssd_gc_inflates_latency;
        Alcotest.test_case "GC duty cycle" `Quick test_ssd_gc_duty_cycle;
        Alcotest.test_case "queue depth penalty" `Quick test_ssd_queue_depth_penalty;
        Alcotest.test_case "history features" `Quick test_ssd_history;
      ] );
    ( "kernel.blk",
      [
        Alcotest.test_case "needs two devices" `Quick test_blk_needs_two_devices;
        Alcotest.test_case "completion via engine" `Quick test_blk_completion_via_engine;
        Alcotest.test_case "hedge caps slow I/Os" `Quick test_blk_hedge_caps_slow_ios;
        Alcotest.test_case "trust counts false submits" `Quick
          test_blk_trust_primary_counts_false_submits;
        Alcotest.test_case "revoke counts false revokes" `Quick
          test_blk_revoke_now_counts_false_revokes;
        Alcotest.test_case "counterfactual published" `Quick test_blk_counterfactual_published;
        Alcotest.test_case "feature shape" `Quick test_blk_features_shape;
        Alcotest.test_case "hooks published" `Quick test_blk_hooks_published;
      ] );
    ( "kernel.sched",
      [
        Alcotest.test_case "completes tasks" `Quick test_sched_completes_tasks;
        Alcotest.test_case "fair sharing" `Quick test_sched_fair_sharing;
        Alcotest.test_case "weighted sharing" `Quick test_sched_weighted_sharing;
        Alcotest.test_case "starvation accounting" `Quick test_sched_starvation_accounting;
        Alcotest.test_case "deprioritize and kill" `Quick test_sched_deprioritize_and_kill;
        Alcotest.test_case "received by class" `Quick test_sched_received_by_class;
        Alcotest.test_case "SMP parallelism" `Quick test_sched_smp_parallelism;
        Alcotest.test_case "wasted cores + rebalance" `Quick
          test_sched_wasted_cores_detection_and_rebalance;
        Alcotest.test_case "single CPU never wastes" `Quick test_sched_single_cpu_never_wastes;
        Alcotest.test_case "bogus balancer clamped" `Quick test_sched_bogus_balancer_clamped;
      ] );
    ( "kernel.mm",
      [
        Alcotest.test_case "second-touch promotion" `Quick test_mm_second_touch_promotion;
        Alcotest.test_case "LRU eviction" `Quick test_mm_lru_eviction_on_capacity;
        Alcotest.test_case "hit fraction" `Quick test_mm_hit_fraction;
        Alcotest.test_case "quota bounds" `Quick test_mm_quota;
        Alcotest.test_case "quota shrink evicts" `Quick test_mm_quota_shrink_evicts;
      ] );
    ( "kernel.cache",
      [
        Alcotest.test_case "LRU semantics" `Quick test_cache_lru;
        Alcotest.test_case "hit rate and reset" `Quick test_cache_hit_rate_and_reset;
        Alcotest.test_case "bogus victim falls back" `Quick test_cache_bogus_victim_falls_back;
        Alcotest.test_case "policy quality ordering" `Slow test_cache_policies_ordering_on_zipf;
      ] );
  ]
