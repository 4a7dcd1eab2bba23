open Gr_util

let duration_ns (t : Time_ns.t) = string_of_int t

let guardrail ~name ~triggers ~rules ~actions =
  let block label items =
    Printf.sprintf "  %s: {\n%s\n  }" label
      (String.concat "\n" (List.map (fun item -> "    " ^ item) items))
  in
  Printf.sprintf "guardrail %s {\n%s\n%s\n%s\n}\n" name
    (block "trigger" triggers)
    (block "rule" rules)
    (block "action" actions)

let timer ~check_every = Printf.sprintf "TIMER(0, %s)" (duration_ns check_every)

module P1_in_distribution = struct
  let envelope values ?(quantile = 0.5) ?(slack = 0.5) () =
    let q = Stats.quantile values quantile in
    let iqr = Stats.quantile values 0.75 -. Stats.quantile values 0.25 in
    let spread = Float.max 1e-9 (iqr *. slack) in
    (q -. spread, q +. spread)

  let bounded_stat ~name ~feature_key ~stat_expr ~lo ~hi ~window ~check_every ~actions =
    guardrail ~name
      ~triggers:[ timer ~check_every ]
      ~rules:
        [
          (* An empty window (no recent inputs) is healthy, not
             drifted: COUNT guards the comparison. *)
          Printf.sprintf "COUNT(%s, %s) == 0 || (%s >= %g && %s <= %g)" feature_key
            (duration_ns window) stat_expr lo stat_expr hi;
        ]
      ~actions

  let source ~name ~feature_key ~lo ~hi ?(quantile = 0.5) ~window ~check_every ~actions () =
    let stat_expr =
      Printf.sprintf "QUANTILE(%s, %g, %s)" feature_key quantile (duration_ns window)
    in
    bounded_stat ~name ~feature_key ~stat_expr ~lo ~hi ~window ~check_every ~actions

  let source_mean ~name ~feature_key ~lo ~hi ~window ~check_every ~actions () =
    let stat_expr = Printf.sprintf "AVG(%s, %s)" feature_key (duration_ns window) in
    bounded_stat ~name ~feature_key ~stat_expr ~lo ~hi ~window ~check_every ~actions

  let instrument_ks d ~feature_key ~training ~window ~every ~out =
    let store = Guardrails.Deployment.store d and window_ns = float_of_int window in
    (* A demand of its own keeps the window's samples in the store
       whatever shorter windows other readers of the key ask for. *)
    Gr_runtime.Feature_store.register_demand store ~key:feature_key ~fn:Gr_dsl.Ast.Count
      ~window_ns ~param:0.;
    Guardrails.Deployment.derive_periodic d ~key:out ~every (fun () ->
        let live = Gr_runtime.Feature_store.window_samples store ~key:feature_key ~window_ns in
        if Array.length live = 0 then 0. else Stats.ks_distance live training)

  let source_ks ~name ~ks_key ~bound ~check_every ~actions () =
    guardrail ~name
      ~triggers:[ timer ~check_every ]
      ~rules:[ Printf.sprintf "LOAD(%s) <= %g" ks_key bound ]
      ~actions
end

module P2_robustness = struct
  let source ~name ~sensitivity_key ~bound ~window ~check_every ~actions () =
    guardrail ~name
      ~triggers:[ timer ~check_every ]
      ~rules:[ Printf.sprintf "MAX(%s, %s) <= %g" sensitivity_key (duration_ns window) bound ]
      ~actions

  let instrument_cc d controller ~rng ~key ~every =
    let rng = Rng.fork rng in
    Guardrails.Deployment.derive_periodic d ~key ~every (fun () ->
        Gr_policy.Cc_controller.sensitivity_probe controller ~rng ~rtt_ms:40. ~loss:0.02 ())
end

module P3_output_bounds = struct
  let source ~name ~hook ~key ~lo ~hi ~actions () =
    guardrail ~name
      ~triggers:[ Printf.sprintf "FUNCTION(%S)" hook ]
      ~rules:[ Printf.sprintf "LOAD(%s) >= %g && LOAD(%s) <= %g" key lo key hi ]
      ~actions
end

module P4_decision_quality = struct
  let source ~name ~policy_key ~baseline_key ~margin ~window ~check_every ~actions () =
    let w = duration_ns window in
    guardrail ~name
      ~triggers:[ timer ~check_every ]
      ~rules:
        [
          (* Compare only once both legs have data in the window. *)
          Printf.sprintf "COUNT(%s, %s) == 0 || COUNT(%s, %s) == 0 || AVG(%s, %s) >= AVG(%s, %s) - %g"
            policy_key w baseline_key w policy_key w baseline_key w margin;
        ]
      ~actions

  let shadow_cache d ~capacity ~baseline ~hit_key =
    let kernel = Guardrails.Deployment.kernel d in
    let shadow_hooks = Gr_kernel.Hooks.create () in
    let shadow = Gr_kernel.Cache.create ~hooks:shadow_hooks ~capacity in
    Gr_kernel.Policy_slot.install (Gr_kernel.Cache.slot shadow)
      ~name:baseline.Gr_kernel.Cache.policy_name baseline;
    ignore
      (Gr_kernel.Hooks.subscribe kernel.hooks "cache:access" (fun args ->
           match List.assoc_opt "key" args with
           | None -> ()
           | Some key ->
             let hit = Gr_kernel.Cache.access shadow ~key:(int_of_float key) in
             Guardrails.Deployment.save d hit_key (if hit then 1. else 0.))
        : Gr_kernel.Hooks.subscription)

  let shadow_readahead d ~cache_pages ~baseline ~hit_key =
    let kernel = Guardrails.Deployment.kernel d in
    let shadow_hooks = Gr_kernel.Hooks.create () in
    let shadow = Gr_kernel.Fs.create ~hooks:shadow_hooks ~cache_pages () in
    Gr_kernel.Policy_slot.install (Gr_kernel.Fs.slot shadow)
      ~name:baseline.Gr_kernel.Fs.policy_name baseline;
    ignore
      (Gr_kernel.Hooks.subscribe kernel.hooks "fs:read" (fun args ->
           match List.assoc_opt "offset" args with
           | None -> ()
           | Some offset ->
             let hit = Gr_kernel.Fs.read shadow ~offset:(int_of_float offset) in
             Guardrails.Deployment.save d hit_key (if hit then 1. else 0.))
        : Gr_kernel.Hooks.subscription)
end

module P5_overhead = struct
  let source ~name ~cost_key ~budget_ns ~window ~check_every ~actions () =
    guardrail ~name
      ~triggers:[ timer ~check_every ]
      ~rules:
        [ Printf.sprintf "AVG(%s, %s) <= %g" cost_key (duration_ns window) budget_ns ]
      ~actions

  let wrap_blk_policy d ~key ~cost_ns (policy : Gr_kernel.Blk.policy) =
    {
      policy with
      decide =
        (fun features ->
          Guardrails.Deployment.save d key cost_ns;
          policy.decide features);
    }
end

module P6_fairness = struct
  let source ~name ?(max_wait_key = "sched_max_wait_ms") ?(jain_key = "sched_jain")
      ~max_wait_ms ~min_jain ~check_every ~actions () =
    guardrail ~name
      ~triggers:[ timer ~check_every ]
      ~rules:
        [
          Printf.sprintf "LOAD(%s) <= %g" max_wait_key max_wait_ms;
          Printf.sprintf "LOAD(%s) >= %g" jain_key min_jain;
        ]
      ~actions
end
