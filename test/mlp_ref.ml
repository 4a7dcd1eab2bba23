(* The nested-array Gr_nn.Mlp that the flat, preallocated kernel
   replaced, kept as the reference its training and inference are
   property-tested against bit for bit (test_nn.ml). Only what the
   property drives is here: creation, inference and training. *)

open Gr_util

type activation = Gr_nn.Mlp.activation = Relu | Sigmoid | Tanh | Linear

type layer = {
  weights : float array array; (* [out][in] *)
  biases : float array;
  act : activation;
}

type t = { layers : layer array }

let apply_act act x =
  match act with
  | Relu -> if x > 0. then x else 0.
  | Sigmoid -> 1. /. (1. +. exp (-.x))
  | Tanh -> tanh x
  | Linear -> x

(* Derivative expressed in terms of the activation output [y]. *)
let act_deriv act y =
  match act with
  | Relu -> if y > 0. then 1. else 0.
  | Sigmoid -> y *. (1. -. y)
  | Tanh -> 1. -. (y *. y)
  | Linear -> 1.

let create ~rng ~layers ?(hidden = Relu) ?(output = Sigmoid) () =
  let sizes = Array.of_list layers in
  let n_layers = Array.length sizes - 1 in
  let make_layer i =
    let n_in = sizes.(i) and n_out = sizes.(i + 1) in
    let scale = sqrt (2.0 /. float_of_int n_in) in
    {
      weights =
        Array.init n_out (fun _ ->
            Array.init n_in (fun _ -> Rng.gaussian rng ~mu:0. ~sigma:scale));
      biases = Array.make n_out 0.;
      act = (if i = n_layers - 1 then output else hidden);
    }
  in
  { layers = Array.init n_layers make_layer }

let layer_forward layer input =
  let n_out = Array.length layer.biases in
  Array.init n_out (fun o ->
      let w = layer.weights.(o) in
      let acc = ref layer.biases.(o) in
      for i = 0 to Array.length w - 1 do
        acc := !acc +. (w.(i) *. input.(i))
      done;
      apply_act layer.act !acc)

let forward t input = Array.fold_left (fun x layer -> layer_forward layer x) input t.layers

(* Forward pass retaining every layer's activations, for backprop. *)
let forward_trace t input =
  let acts = Array.make (Array.length t.layers + 1) input in
  Array.iteri (fun i layer -> acts.(i + 1) <- layer_forward layer acts.(i)) t.layers;
  acts

let train_batch t ~lr batch =
  if Array.length batch = 0 then 0.
  else begin
    let n_layers = Array.length t.layers in
    (* Accumulate gradients across the batch, then apply one step. *)
    let grad_w =
      Array.map (fun l -> Array.map (fun row -> Array.make (Array.length row) 0.) l.weights) t.layers
    in
    let grad_b = Array.map (fun l -> Array.make (Array.length l.biases) 0.) t.layers in
    let total_loss = ref 0. in
    Array.iter
      (fun (x, y) ->
        let acts = forward_trace t x in
        let out = acts.(n_layers) in
        (* MSE loss; delta at the output layer. *)
        let delta = ref (Array.mapi (fun i o ->
            let err = o -. y.(i) in
            total_loss := !total_loss +. (err *. err);
            2. *. err *. act_deriv t.layers.(n_layers - 1).act o) out)
        in
        for l = n_layers - 1 downto 0 do
          let layer = t.layers.(l) in
          let below = acts.(l) in
          let d = !delta in
          for o = 0 to Array.length d - 1 do
            grad_b.(l).(o) <- grad_b.(l).(o) +. d.(o);
            let gw = grad_w.(l).(o) and w = layer.weights.(o) in
            for i = 0 to Array.length w - 1 do
              gw.(i) <- gw.(i) +. (d.(o) *. below.(i))
            done
          done;
          if l > 0 then begin
            let n_in = Array.length layer.weights.(0) in
            let next = Array.make n_in 0. in
            for i = 0 to n_in - 1 do
              let acc = ref 0. in
              for o = 0 to Array.length d - 1 do
                acc := !acc +. (layer.weights.(o).(i) *. d.(o))
              done;
              next.(i) <- !acc *. act_deriv t.layers.(l - 1).act below.(i)
            done;
            delta := next
          end
        done)
      batch;
    let scale = lr /. float_of_int (Array.length batch) in
    Array.iteri
      (fun l layer ->
        Array.iteri
          (fun o row ->
            layer.biases.(o) <- layer.biases.(o) -. (scale *. grad_b.(l).(o));
            Array.iteri (fun i g -> row.(i) <- row.(i) -. (scale *. g)) grad_w.(l).(o))
          layer.weights)
      t.layers;
    !total_loss /. float_of_int (Array.length batch)
  end

let train t ~rng ~epochs ~batch_size ~lr data =
  if Array.length data = 0 then 0.
  else begin
    let data = Array.copy data in
    let last_loss = ref 0. in
    for _epoch = 1 to epochs do
      Rng.shuffle rng data;
      let n = Array.length data in
      let losses = ref 0. and batches = ref 0 in
      let i = ref 0 in
      while !i < n do
        let len = min batch_size (n - !i) in
        losses := !losses +. train_batch t ~lr (Array.sub data !i len);
        incr batches;
        i := !i + len
      done;
      last_loss := !losses /. float_of_int (max 1 !batches)
    done;
    !last_loss
  end
