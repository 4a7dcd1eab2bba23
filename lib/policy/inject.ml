open Gr_util

let flip_blk_decisions ~rng ~p policy =
  let rng = Rng.fork rng in
  {
    Gr_kernel.Blk.policy_name = policy.Gr_kernel.Blk.policy_name ^ "+flip";
    decide =
      (fun features ->
        let decision = policy.Gr_kernel.Blk.decide features in
        if Rng.float rng 1.0 >= p then decision
        else
          match decision with
          | Gr_kernel.Blk.Trust_primary -> Gr_kernel.Blk.Revoke_now
          | Gr_kernel.Blk.Revoke_now | Gr_kernel.Blk.Hedge _ -> Gr_kernel.Blk.Trust_primary);
  }

let stuck_blk decision =
  let suffix =
    match decision with
    | Gr_kernel.Blk.Trust_primary -> "trust"
    | Gr_kernel.Blk.Revoke_now -> "revoke"
    | Gr_kernel.Blk.Hedge _ -> "hedge"
  in
  { Gr_kernel.Blk.policy_name = "stuck-" ^ suffix; decide = (fun _ -> decision) }

let always_promote =
  { Gr_kernel.Mm.policy_name = "always-promote"; promote = (fun _ -> true) }

let never_promote =
  { Gr_kernel.Mm.policy_name = "never-promote"; promote = (fun _ -> false) }

let wild_slices ~rng ~max_ms =
  let rng = Rng.fork rng in
  {
    Gr_kernel.Sched.policy_name = "wild-slices";
    slice =
      (fun ~nr_runnable:_ ~task_weight:_ ~task_received_ms:_ ->
        Gr_util.Time_ns.ms (1 + Rng.int rng (max 1 max_ms)));
  }

let mru_eviction =
  {
    Gr_kernel.Cache.policy_name = "mru";
    choose_victim = (fun ~candidates -> candidates.(Array.length candidates - 1));
  }
