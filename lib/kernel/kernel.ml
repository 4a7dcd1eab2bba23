type t = {
  engine : Gr_sim.Engine.t;
  hooks : Hooks.t;
  registry : Policy_slot.Registry.t;
  rng : Gr_util.Rng.t;
  mutable skew : Gr_util.Time_ns.t;
}

let create ~seed =
  {
    engine = Gr_sim.Engine.create ();
    hooks = Hooks.create ();
    registry = Policy_slot.Registry.create ();
    rng = Gr_util.Rng.create seed;
    skew = Gr_util.Time_ns.zero;
  }

let now t = Gr_util.Time_ns.add (Gr_sim.Engine.now t.engine) t.skew


let advance_clock_skew t ~by =
  if by < 0 then invalid_arg "Kernel.advance_clock_skew: skew only advances forward";
  t.skew <- Gr_util.Time_ns.add t.skew by
let run_until t limit = Gr_sim.Engine.run_until t.engine limit

let register_policy t ~name ?(retrain = Policy_slot.Registry.no_retrain) ~replace ~restore () =
  Policy_slot.Registry.register t.registry name { replace; restore; retrain }
