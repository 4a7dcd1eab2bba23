(** One learned policy's model: a trained {!Mlp.t}, the optional
    {!Scaler.t} its inputs pass through, and the input buffer it owns.

    Every learned policy trains and decides through a scorer. {!fit}
    performs the draws and float operations of the sequence it stands
    for — scale the examples, [Mlp.create ~rng:(Rng.fork rng)], then
    [Mlp.train ~rng] — so a policy's trained weights are bit-identical
    to fitting the net by hand.

    A decision writes its features into {!input} and calls {!score}
    (or hands a feature vector to {!score_of}). The result is
    [(Mlp.forward (mlp t) x).(0)], bit for bit, where [x] is the
    written vector passed through [Scaler.transform] when the scorer
    has a scaler. The input is scaled in place and scored through the
    net's own layer buffers, so under the release profile, where
    {!score} and {!Mlp.score} inline into the caller, a decision
    allocates nothing. A scorer is therefore single-owner and not
    reentrant: one scorer must not decide in two domains at once;
    {!copy} gives a copy buffers of its own. *)

type t

val fit :
  rng:Gr_util.Rng.t ->
  ?scaler:Scaler.t ->
  layers:int list ->
  ?hidden:Mlp.activation ->
  ?output:Mlp.activation ->
  epochs:int ->
  batch_size:int ->
  lr:float ->
  (float array * float array) array ->
  t
(** [fit ~rng ?scaler ~layers ... data] scales each example's input
    with [scaler] when one is given, builds the net from
    [Rng.fork rng] ({!Mlp.create} with [layers], [hidden], [output]),
    then trains it on the scaled examples with [rng] ({!Mlp.train}). *)

val input : t -> float array
(** The buffer a decision writes its raw features into; its length is
    the net's input dimension. *)

val score : t -> float
(** Scales {!input} in place (when the scorer has a scaler), then
    scores it: output 0 of the net. *)

val score_of : t -> float array -> float
(** [score_of t x] scales [x] into {!input} and scores it; [x] must
    have the net's input dimension and is left unchanged. *)

val mlp : t -> Mlp.t
val scaler : t -> Scaler.t option

val copy : t -> t
(** Own net weights, layer buffers and input buffer; the same
    (immutable) scaler. *)
