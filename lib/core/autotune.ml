open Gr_util

type t = {
  deployment : Deployment.t;
  key : string;
  quantile : float;
  slack : float;
  make_source : hi:float -> string;
  mutable bound : float option;
  mutable installed : Gr_runtime.Engine.handle option;
  mutable tightenings : int;
}

let observed_bound t ~window_ns =
  let store = Deployment.store t.deployment in
  let n = Gr_runtime.Feature_store.samples_in_window store ~key:t.key ~window_ns in
  if n < 10 then None
  else begin
    let q =
      Gr_runtime.Feature_store.aggregate store ~key:t.key ~fn:Gr_dsl.Ast.Quantile ~window_ns
        ~param:t.quantile
    in
    Some (t.slack *. q)
  end

let install_with_bound t hi =
  match Deployment.install_source t.deployment (t.make_source ~hi) with
  | Ok handles ->
    (* Swap atomically: arm the new monitor, then retire the old. *)
    let old = t.installed in
    t.installed <- (match handles with h :: _ -> Some h | [] -> None);
    (match old with Some h -> Deployment.uninstall t.deployment h | None -> ());
    t.bound <- Some hi;
    true
  | Error _ -> false

let recalibrate t ~window_ns =
  match observed_bound t ~window_ns with
  | None -> ()
  | Some candidate -> (
    match t.bound with
    | None -> ignore (install_with_bound t candidate : bool)
    | Some current when candidate < current ->
      (* Only ever tighten: a degraded phase must not relax the
         property it is supposed to be caught by. *)
      if install_with_bound t candidate then t.tightenings <- t.tightenings + 1
    | Some _ -> ())

let deploy deployment ~key ?(quantile = 0.99) ?(slack = 2.0) ?(warmup = Time_ns.sec 1)
    ?(tighten_every = Time_ns.sec 2) ~make_source () =
  let t =
    {
      deployment;
      key;
      quantile;
      slack;
      make_source;
      bound = None;
      installed = None;
      tightenings = 0;
    }
  in
  (* Each calibration window is a demand of its own, so the store
     keeps that window's samples whatever shorter windows the key's
     monitors read, and the QUANTILE read streams. The warmup's is
     read once. *)
  let store = Deployment.store deployment in
  let demand ~window_ns f =
    f store ~key ~fn:Gr_dsl.Ast.Quantile ~window_ns:(float_of_int window_ns) ~param:quantile
  in
  demand ~window_ns:warmup Gr_runtime.Feature_store.register_demand;
  demand ~window_ns:tighten_every Gr_runtime.Feature_store.register_demand;
  let kernel = Deployment.kernel deployment in
  ignore
    (Gr_sim.Engine.schedule_after kernel.engine warmup (fun _ ->
         recalibrate t ~window_ns:(float_of_int warmup);
         demand ~window_ns:warmup Gr_runtime.Feature_store.release_demand)
      : Gr_sim.Engine.handle);
  ignore
    (Gr_sim.Engine.every kernel.engine
       ~start:(Time_ns.add (Gr_sim.Engine.now kernel.engine) (Time_ns.add warmup tighten_every))
       ~interval:tighten_every
       (fun _ -> recalibrate t ~window_ns:(float_of_int tighten_every))
      : Gr_sim.Engine.handle);
  t

let current_bound t = t.bound
let tightenings t = t.tightenings
let handle t = t.installed
