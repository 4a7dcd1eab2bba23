open Gr_util

type activation = Relu | Sigmoid | Tanh | Linear

type layer = {
  n_in : int;
  n_out : int;
  weights : float array; (* row-major: input [i] into output [o] at [o * n_in + i] *)
  biases : float array;
  act : activation;
  out : float array; (* this layer's output in the last inference *)
}

type t = {
  layers : layer array;
  final : float array; (* the last layer's [out] *)
}

let[@inline] activate act x =
  match act with
  | Relu -> if x > 0. then x else 0.
  | Sigmoid -> 1. /. (1. +. exp (-.x))
  | Tanh -> tanh x
  | Linear -> x

(* Derivative expressed in terms of the activation output [y]. *)
let[@inline] deriv act y =
  match act with
  | Relu -> if y > 0. then 1. else 0.
  | Sigmoid -> y *. (1. -. y)
  | Tanh -> 1. -. (y *. y)
  | Linear -> 1.

let assemble layers = { layers; final = layers.(Array.length layers - 1).out }

let create ~rng ~layers ?(hidden = Relu) ?(output = Sigmoid) () =
  (match layers with
  | [] | [ _ ] -> invalid_arg "Mlp.create: need at least input and output sizes"
  | sizes -> if List.exists (fun n -> n <= 0) sizes then invalid_arg "Mlp.create: layer sizes must be positive");
  let sizes = Array.of_list layers in
  let n_layers = Array.length sizes - 1 in
  let make_layer i =
    let n_in = sizes.(i) and n_out = sizes.(i + 1) in
    let scale = sqrt (2.0 /. float_of_int n_in) in
    {
      n_in;
      n_out;
      (* Row by row, so the draws land where the nested layout had them. *)
      weights = Array.init (n_out * n_in) (fun _ -> Rng.gaussian rng ~mu:0. ~sigma:scale);
      biases = Array.make n_out 0.;
      act = (if i = n_layers - 1 then output else hidden);
      out = Array.make n_out 0.;
    }
  in
  assemble (Array.init n_layers make_layer)

let input_dim t = t.layers.(0).n_in
let output_dim t = Array.length t.final

(* [dst.(o)] gets the activation of [biases.(o) + sum_i w(o,i) * src.(i)],
   summed from the bias up in ascending [i]. Outputs go four at a time,
   one accumulator per output sharing each input load, so the four
   dependent add chains overlap; each chain keeps its own order, so the
   sums are the one-output-at-a-time sums bit for bit. A width that is
   not a multiple of four finishes one output at a time. The inner
   loops of this and of [train_range] read unchecked: [weights] holds
   [n_out * n_in] values by construction, every layer buffer is sized
   by the layer it feeds or follows, and inputs are checked against
   [input_dim] before they reach a kernel. *)
let layer_into l (src : float array) (dst : float array) =
  let n_in = l.n_in and w = l.weights and b = l.biases and act = l.act in
  let quads = l.n_out / 4 in
  for q = 0 to quads - 1 do
    let o = 4 * q in
    let r0 = o * n_in in
    let r1 = r0 + n_in in
    let r2 = r1 + n_in in
    let r3 = r2 + n_in in
    let a0 = ref b.(o) and a1 = ref b.(o + 1) and a2 = ref b.(o + 2) and a3 = ref b.(o + 3) in
    for i = 0 to n_in - 1 do
      let x = Array.unsafe_get src i in
      a0 := !a0 +. (Array.unsafe_get w (r0 + i) *. x);
      a1 := !a1 +. (Array.unsafe_get w (r1 + i) *. x);
      a2 := !a2 +. (Array.unsafe_get w (r2 + i) *. x);
      a3 := !a3 +. (Array.unsafe_get w (r3 + i) *. x)
    done;
    dst.(o) <- activate act !a0;
    dst.(o + 1) <- activate act !a1;
    dst.(o + 2) <- activate act !a2;
    dst.(o + 3) <- activate act !a3
  done;
  for o = 4 * quads to l.n_out - 1 do
    let row = o * n_in in
    let acc = ref b.(o) in
    for i = 0 to n_in - 1 do
      acc := !acc +. (Array.unsafe_get w (row + i) *. Array.unsafe_get src i)
    done;
    dst.(o) <- activate act !acc
  done

(* Fills every layer's [out] buffer; the result is in [t.final]. *)
let infer t input =
  let src = ref input in
  for k = 0 to Array.length t.layers - 1 do
    let l = t.layers.(k) in
    layer_into l !src l.out;
    src := l.out
  done

let check_input fn t input =
  if Array.length input <> input_dim t then invalid_arg (fn ^ ": input dimension mismatch")

let forward t input =
  check_input "Mlp.forward" t input;
  infer t input;
  Array.copy t.final

(* Inlined where the caller sees this module's body (release builds),
   so the result stays an unboxed float. *)
let[@inline] score t input =
  check_input "Mlp.score" t input;
  infer t input;
  t.final.(0)

(* One [train] call's working set, allocated once and reused by every
   batch. [acts.(0)] is the current sample's input and [acts.(l + 1)]
   layer [l]'s output; [deltas.(l)] is the loss gradient at layer [l]'s
   pre-activation; [grad_w]/[grad_b] accumulate over one batch. *)
type scratch = {
  acts : float array array;
  deltas : float array array;
  grad_w : float array array;
  grad_b : float array array;
}

let scratch t =
  let outs () = Array.map (fun l -> Array.make l.n_out 0.) t.layers in
  {
    acts = Array.append [| [||] |] (outs ());
    deltas = outs ();
    grad_w = Array.map (fun l -> Array.make (Array.length l.weights) 0.) t.layers;
    grad_b = outs ();
  }

let[@inline] add_at a j x = Array.unsafe_set a j (Array.unsafe_get a j +. x)

(* One SGD step on [data.(start) .. data.(start + len - 1)] with mean
   squared error on the post-activation outputs. Gradients accumulate
   sample by sample; the update follows the whole batch. Returns the
   mean batch loss before the update. *)
let train_range t s ~lr data start len =
  let layers = t.layers in
  let n_layers = Array.length layers in
  let top = layers.(n_layers - 1) in
  for l = 0 to n_layers - 1 do
    Array.fill s.grad_w.(l) 0 (Array.length s.grad_w.(l)) 0.;
    Array.fill s.grad_b.(l) 0 (Array.length s.grad_b.(l)) 0.
  done;
  let total_loss = ref 0. in
  for k = start to start + len - 1 do
    let x, (y : float array) = data.(k) in
    s.acts.(0) <- x;
    for l = 0 to n_layers - 1 do
      layer_into layers.(l) s.acts.(l) s.acts.(l + 1)
    done;
    let out = s.acts.(n_layers) and d = s.deltas.(n_layers - 1) in
    for o = 0 to top.n_out - 1 do
      let v = out.(o) in
      let err = v -. y.(o) in
      total_loss := !total_loss +. (err *. err);
      d.(o) <- 2. *. err *. deriv top.act v
    done;
    for l = n_layers - 1 downto 0 do
      let layer = layers.(l) in
      let n_in = layer.n_in and w = layer.weights in
      let below = s.acts.(l) and d = s.deltas.(l) in
      let gw = s.grad_w.(l) and gb = s.grad_b.(l) in
      let n_out = layer.n_out and quads = n_in / 4 in
      for o = 0 to n_out - 1 do
        let dv = d.(o) in
        gb.(o) <- gb.(o) +. dv;
        let row = o * n_in in
        for q = 0 to quads - 1 do
          let i = 4 * q in
          let j = row + i in
          add_at gw j (dv *. Array.unsafe_get below i);
          add_at gw (j + 1) (dv *. Array.unsafe_get below (i + 1));
          add_at gw (j + 2) (dv *. Array.unsafe_get below (i + 2));
          add_at gw (j + 3) (dv *. Array.unsafe_get below (i + 3))
        done;
        for i = 4 * quads to n_in - 1 do
          add_at gw (row + i) (dv *. Array.unsafe_get below i)
        done
      done;
      (* The delta below sums over outputs from [0.] in ascending
         order, four inputs per pass as in [layer_into]. *)
      if l > 0 then begin
        let next = s.deltas.(l - 1) and act = layers.(l - 1).act in
        for q = 0 to quads - 1 do
          let i = 4 * q in
          let a0 = ref 0. and a1 = ref 0. and a2 = ref 0. and a3 = ref 0. in
          let j = ref i in
          for o = 0 to n_out - 1 do
            let dv = Array.unsafe_get d o and jj = !j in
            a0 := !a0 +. (Array.unsafe_get w jj *. dv);
            a1 := !a1 +. (Array.unsafe_get w (jj + 1) *. dv);
            a2 := !a2 +. (Array.unsafe_get w (jj + 2) *. dv);
            a3 := !a3 +. (Array.unsafe_get w (jj + 3) *. dv);
            j := jj + n_in
          done;
          next.(i) <- !a0 *. deriv act below.(i);
          next.(i + 1) <- !a1 *. deriv act below.(i + 1);
          next.(i + 2) <- !a2 *. deriv act below.(i + 2);
          next.(i + 3) <- !a3 *. deriv act below.(i + 3)
        done;
        for i = 4 * quads to n_in - 1 do
          let acc = ref 0. in
          for o = 0 to n_out - 1 do
            acc := !acc +. (Array.unsafe_get w ((o * n_in) + i) *. Array.unsafe_get d o)
          done;
          next.(i) <- !acc *. deriv act below.(i)
        done
      end
    done
  done;
  let scale = lr /. float_of_int len in
  for l = 0 to n_layers - 1 do
    let b = layers.(l).biases and w = layers.(l).weights in
    let gb = s.grad_b.(l) and gw = s.grad_w.(l) in
    for o = 0 to Array.length b - 1 do
      b.(o) <- b.(o) -. (scale *. gb.(o))
    done;
    for i = 0 to Array.length w - 1 do
      w.(i) <- w.(i) -. (scale *. gw.(i))
    done
  done;
  !total_loss /. float_of_int len

let train t ~rng ~epochs ~batch_size ~lr data =
  if Array.length data = 0 then 0.
  else begin
    if batch_size <= 0 then invalid_arg "Mlp.train: batch_size must be positive";
    let n_in = input_dim t and n_out = output_dim t in
    Array.iter
      (fun (x, y) ->
        if Array.length x <> n_in || Array.length y <> n_out then
          invalid_arg "Mlp.train: sample dimension mismatch")
      data;
    let data = Array.copy data in
    let n = Array.length data in
    let s = scratch t in
    let last_loss = ref 0. in
    for _epoch = 1 to epochs do
      Rng.shuffle rng data;
      let losses = ref 0. and batches = ref 0 and start = ref 0 in
      while !start < n do
        let len = min batch_size (n - !start) in
        losses := !losses +. train_range t s ~lr data !start len;
        incr batches;
        start := !start + len
      done;
      last_loss := !losses /. float_of_int !batches
    done;
    !last_loss
  end

let flops_per_forward t = Array.fold_left (fun acc l -> acc + (l.n_out * (l.n_in + 1))) 0 t.layers

let copy t =
  let layers =
    Array.map
      (fun l ->
        {
          l with
          weights = Array.copy l.weights;
          biases = Array.copy l.biases;
          out = Array.make l.n_out 0.;
        })
      t.layers
  in
  assemble layers
