(** The Figure 2 block stack. Forwards, control keys, policy
    registration, aging and the I/O driver stay with each caller. *)

type t = { devices : Gr_kernel.Ssd.t array; blk : Gr_kernel.Blk.t; model : Linnos.t }

val create : templates:Linnos.Templates.t -> Gr_kernel.Kernel.t -> devices:int -> t
(** Draws from [kernel.rng], in order, [devices] young flash devices
    with ids [0..devices-1], then LinnOS trained through [templates];
    puts a {!Gr_kernel.Blk} over the devices and installs the model's
    policy in its slot as ["linnos"]. *)
