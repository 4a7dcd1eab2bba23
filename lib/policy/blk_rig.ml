module Ssd = Gr_kernel.Ssd
module Blk = Gr_kernel.Blk

type t = { devices : Ssd.t array; blk : Blk.t; model : Linnos.t }

let create ~templates (kernel : Gr_kernel.Kernel.t) ~devices:n =
  let devices =
    Array.init n (fun i -> Ssd.create ~rng:kernel.rng ~profile:Ssd.young_profile ~id:i)
  in
  let blk = Blk.create ~engine:kernel.engine ~hooks:kernel.hooks ~devices () in
  let model = Linnos.Templates.train templates ~rng:kernel.rng ~devices in
  Gr_kernel.Policy_slot.install (Blk.slot blk) ~name:"linnos" (Linnos.policy model);
  { devices; blk; model }
