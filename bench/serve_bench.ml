(* Ablation J — cost of the live control plane (grc serve).

   Three questions about the versioned spec lifecycle, answered on an
   idle fleet so the numbers isolate the control plane itself:

   - push: host latency of one admission (parse, lint/verify static
     analysis, compile, stage) — the synchronous work a client waits
     for on the socket before the admission decision comes back;
   - rollout: host cost of a full canary cycle (install at the first
     barrier, verdicts, promote) and of a rollback cycle for a
     guardrail-violating spec;
   - steady tax: host sec/sim sec of the same fleet advancing with
     the lifecycle's barrier hook registered vs bare. The hook only
     inspects engine stats at epoch boundaries, so this ratio is the
     whole per-epoch price of keeping rollouts gated — expected ~1.0.

   Output row per fleet size; --json appends the BENCH_scale.json
   perf-trajectory line ("experiment": "serve"). *)

open Gr_util
module L = Guardrails.Lifecycle
module Fleet = Guardrails.Fleet

let boot_spec =
  {|
guardrail serve-tail {
  trigger: { TIMER(0, 100ms) },
  rule: { COUNT(latency_us, 1s) == 0 || QUANTILE(latency_us, 0.99, 1s) <= 1e9 },
  action: {
    REPORT("p99 degraded", latency_us)
    REPLACE("lat_predictor")
  }
}
|}

(* Same shapes, new threshold: the promotable push. *)
let good_spec =
  {|
guardrail serve-tail {
  trigger: { TIMER(0, 100ms) },
  rule: { COUNT(latency_us, 1s) == 0 || QUANTILE(latency_us, 0.99, 1s) <= 5e8 },
  action: {
    REPORT("p99 degraded", latency_us)
    REPLACE("lat_predictor")
  }
}
|}

(* Violates the fire-rate guardrail at runtime (idle sim, missing
   heartbeat), so every rollout of it ends in a rollback. *)
let hot_spec =
  {|
guardrail serve-heartbeat {
  trigger: { TIMER(0, 10ms) },
  rule: { COUNT(serve_heartbeat, 1s) >= 1 },
  action: {
    REPORT("no heartbeat", serve_heartbeat)
    REPLACE("lat_predictor")
  }
}
|}

let ms f =
  let t0 = Common.now_ns () in
  f ();
  (Common.now_ns () -. t0) /. 1e6

let make_fleet nodes =
  let fleet = Fleet.create ~nodes ~seed:7 ~engine:!Common.engine () in
  let lc = L.create ~config:{ L.default_config with canary_barriers = 1 } (L.Fleet fleet) in
  (match L.boot lc ~who:"bench" boot_spec with
  | Ok _ -> ()
  | Error e -> Fmt.failwith "serve bench boot: %a" Guardrails.Deployment.pp_error e);
  (fleet, lc)

let advance fleet n =
  for _ = 1 to n do
    Fleet.run_until fleet
      (Time_ns.add (Guardrails.Sim.now (Fleet.sim fleet)) Fleet.default_epoch)
  done

type row = {
  nodes : int;
  push_ms : float;  (* admission latency, mean over cycles *)
  promote_ms : float;  (* host cost of install + verdict + promote barriers *)
  rollback_ms : float;  (* host cost of install + verdict + rollback barriers *)
  steady_ratio : float;  (* hooked host time / bare host time, same sim span *)
  promotions : int;
  rollbacks : int;
}

let run_size ~cycles ~steady_epochs nodes =
  let fleet, lc = make_fleet nodes in
  (* Interleave promote and rollback cycles; each cycle = one push
     (timed alone: the client-visible admission latency) plus two
     barriers (install, then the verdict that promotes or rolls
     back). canary_barriers = 1 keeps the cycle minimal. *)
  let push_t = ref 0. and promote_t = ref 0. and rollback_t = ref 0. in
  for cycle = 1 to cycles do
    let spec = if cycle land 1 = 0 then hot_spec else good_spec in
    (push_t :=
       !push_t
       +. ms (fun () ->
              match L.push lc ~who:"bench" spec with
              | L.Admitted _ -> ()
              | L.Rejected { reason; _ } -> Fmt.failwith "bench push rejected: %s" reason));
    let cycle_ms = ms (fun () -> advance fleet 2) in
    if cycle land 1 = 0 then rollback_t := !rollback_t +. cycle_ms
    else promote_t := !promote_t +. cycle_ms
  done;
  let per_kind = float_of_int ((cycles + 1) / 2) in
  (* Steady tax: same fleet construction, same sim span, with and
     without the lifecycle hook. The hooked fleet steps in
     epoch-sized chunks (the barrier contract), so the bare baseline
     is driven through identical chunks and the ratio isolates the
     decision check itself. *)
  let bare = Fleet.create ~nodes ~seed:7 ~engine:!Common.engine () in
  Fleet.install_source_exn bare boot_spec |> ignore;
  (* Both arms are cheap at idle, so warm each and keep the best of
     three timings to push allocator/GC jitter out of the ratio. *)
  let best f =
    advance f steady_epochs |> ignore;
    let m = ref infinity in
    for _ = 1 to 3 do
      m := Float.min !m (ms (fun () -> advance f steady_epochs))
    done;
    !m
  in
  let bare_ms = best bare in
  let hooked_ms = best fleet in
  {
    nodes;
    push_ms = !push_t /. float_of_int cycles;
    promote_ms = !promote_t /. per_kind;
    rollback_ms = !rollback_t /. per_kind;
    steady_ratio = (if bare_ms > 0. then hooked_ms /. bare_ms else 1.);
    promotions = L.promotions lc;
    rollbacks = L.rollbacks lc;
  }

let run ~json =
  let sizes = if !Common.smoke then [ 1; 4 ] else [ 1; 4; 16 ] in
  let cycles = if !Common.smoke then 4 else 20 in
  let steady_epochs = if !Common.smoke then 40 else 400 in
  let rows = List.map (run_size ~cycles ~steady_epochs) sizes in
  if json then begin
    let module J = Guardrails.Json in
    let row r =
      J.Obj
        [
          ("nodes", J.Num (float_of_int r.nodes));
          ("push_admit_ms", J.Num r.push_ms);
          ("promote_cycle_ms", J.Num r.promote_ms);
          ("rollback_cycle_ms", J.Num r.rollback_ms);
          ("steady_hook_ratio", J.Num r.steady_ratio);
          ("promotions", J.Num (float_of_int r.promotions));
          ("rollbacks", J.Num (float_of_int r.rollbacks));
        ]
    in
    print_endline
      (J.to_string
         (J.Obj
            [
              ("experiment", J.Str "serve");
              ("host_cores", J.Num (float_of_int Common.host_cores));
              ("cycles", J.Num (float_of_int cycles));
              ("steady_epochs", J.Num (float_of_int steady_epochs));
              ("rows", J.Arr (List.map row rows));
            ]))
  end
  else begin
    Common.section "Ablation — live control plane (grc serve rollout lifecycle)";
    Printf.printf "  %5s  %14s  %16s  %17s  %16s\n" "nodes" "push admit ms" "promote cycle ms"
      "rollback cycle ms" "steady hook tax";
    List.iter
      (fun r ->
        Printf.printf "  %5d  %14.3f  %16.3f  %17.3f  %15.2fx\n" r.nodes r.push_ms r.promote_ms
          r.rollback_ms r.steady_ratio)
      rows;
    Printf.printf
      "  (%d push cycles per size, alternating promote/rollback; steady tax over %d epochs)\n"
      cycles steady_epochs
  end
