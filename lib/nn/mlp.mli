(** Small multi-layer perceptron, trained with minibatch SGD.

    This is the "light neural network" substrate behind the learned
    policies (the LinnOS-style latency classifier uses a three-layer
    net, as in the original paper). It is deliberately dependency-free
    and deterministic: weight initialisation draws from an explicit
    {!Gr_util.Rng.t}.

    Each layer keeps its weights in one row-major [float array] (input
    [i] into output [o] at [o * n_in + i]) next to its biases, and
    owns the buffer its output is written to at inference, so
    {!score} allocates no result array. {!train} allocates its activations,
    deltas and gradient accumulators once per call and walks each
    minibatch as an index range of its shuffled copy of the data.
    Every floating-point operation happens in one fixed order: a
    neuron's sum starts at its bias and adds [w *. x] in ascending
    input order; gradients accumulate sample by sample; a back-
    propagated delta sums over outputs in ascending order; the update
    writes biases, then weights. Inference fills four outputs per pass
    over the inputs, and back-propagation four deltas per pass over
    the outputs, each with its own accumulator kept in that order (a
    width that is not a multiple of four finishes one at a time), so
    the four sums overlap without changing a bit. Trained weights, losses and
    predictions are therefore bit-identical to the nested-array
    implementation this replaced (a differential property in the test
    suite holds the two to it).

    A model is single-owner: inference writes the model's own
    buffers, so one model must not be used from two domains at once.
    {!copy} gives a copy buffers of its own.

    Inference cost matters to the reproduction — the P5 property
    (decision overhead) charges simulated time per forward pass — so
    {!flops_per_forward} is exposed for the overhead accounting.
    Learned policies hold their net in a {!Scorer.t}. *)

type activation = Relu | Sigmoid | Tanh | Linear

type t

val create :
  rng:Gr_util.Rng.t ->
  layers:int list ->
  ?hidden:activation ->
  ?output:activation ->
  unit ->
  t
(** [create ~rng ~layers:[n_in; h1; ...; n_out] ()] builds a network
    with He-scaled random weights. [hidden] defaults to [Relu],
    [output] to [Sigmoid]. Requires at least two layer sizes, all
    positive. *)

val input_dim : t -> int
val output_dim : t -> int

val forward : t -> float array -> float array
(** Runs inference. The input array length must equal [input_dim].
    Returns a fresh array of length [output_dim]. *)

val score : t -> float array -> float
(** [score t x] is [(forward t x).(0)] without allocating the result
    array. Where it inlines into its caller (release builds), the
    float stays unboxed and a call allocates nothing. *)

val train :
  t ->
  rng:Gr_util.Rng.t ->
  epochs:int ->
  batch_size:int ->
  lr:float ->
  (float array * float array) array ->
  float
(** Shuffled minibatch training over the dataset of (input, target)
    pairs: each minibatch is one SGD step on the mean squared error of
    the post-activation outputs. Returns the final epoch's mean
    minibatch loss (each taken before its step). [batch_size] must be
    positive, and every input must have length [input_dim] and every
    target [output_dim]. *)

val flops_per_forward : t -> int
(** Approximate multiply-accumulate count of one inference, used to
    derive a simulated inference latency. *)

val copy : t -> t
(** Deep copy with its own weights and inference buffers, so the copy
    and the original can be used in any interleaving (and each by its
    own domain); used to snapshot a model before simulated
    retraining. *)
