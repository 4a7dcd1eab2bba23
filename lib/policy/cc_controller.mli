(** Learned congestion-control rate adjuster — the P2 robustness
    subject.

    Figure 1's P2 example: "Congestion control. Check if the model is
    sensitive to noisy measurements." The controller maps smoothed
    network observations (RTT, loss rate) to a sending-rate
    multiplier, Orca-style (a learned model adjusting a classical
    controller at coarse timescales). A healthy model is Lipschitz in
    its inputs; {!inject_sensitivity} amplifies the first-layer
    weights, standing in for an overfit/unstable model whose outputs
    swing wildly under measurement noise.

    {!sensitivity_probe} is the instrumentation the P2 guardrail
    consumes: it perturbs the current inputs by a small epsilon and
    reports the output-to-input variation ratio. *)

type t

val train : rng:Gr_util.Rng.t -> ?samples:int -> ?epochs:int -> unit -> t

val rate_multiplier : t -> rtt_ms:float -> loss:float -> float
(** In (0, 2): < 1 backs off, > 1 speeds up. *)

val scorer : t -> Gr_nn.Scorer.t

val score : t -> rtt_ms:float -> loss:float -> float
(** The scorer's output on the input vector these arguments fill
    ({!Gr_nn.Scorer.score}). *)

val sensitivity_probe :
  t -> rng:Gr_util.Rng.t -> rtt_ms:float -> loss:float -> unit -> float
(** Max |delta output| / epsilon over six inputs perturbed by an
    epsilon of 0.01 of each input's range — an empirical local
    Lipschitz estimate. *)

val inject_sensitivity : t -> scale:float -> unit
(** Sets the instability amplitude; [scale <= 1.] restores the
    trained model's behaviour. *)

val restore : t -> unit
(** Undoes {!inject_sensitivity}. It does not take the controller out
    of service: REPLACE/RESTORE act on the {!Gr_kernel.Net} slot, whose
    fallback is {!Gr_kernel.Net.aimd}. *)

val controller : t -> Gr_kernel.Net.controller
(** Adapter for the {!Gr_kernel.Net} congestion slot. *)
