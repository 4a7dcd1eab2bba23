(* Tests for gr_nn: the MLP, the feature scaler and the scorer. *)

open Gr_util
open Gr_nn

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

let test_shapes () =
  let rng = Rng.create 1 in
  let net = Mlp.create ~rng ~layers:[ 3; 5; 2 ] () in
  check_int "input dim" 3 (Mlp.input_dim net);
  check_int "output dim" 2 (Mlp.output_dim net);
  let out = Mlp.forward net [| 0.1; 0.2; 0.3 |] in
  check_int "output length" 2 (Array.length out)

let test_bad_shapes_rejected () =
  let rng = Rng.create 1 in
  Alcotest.check_raises "one layer"
    (Invalid_argument "Mlp.create: need at least input and output sizes") (fun () ->
      ignore (Mlp.create ~rng ~layers:[ 3 ] () : Mlp.t));
  let net = Mlp.create ~rng ~layers:[ 3; 1 ] () in
  Alcotest.check_raises "wrong input size" (Invalid_argument "Mlp.forward: input dimension mismatch")
    (fun () -> ignore (Mlp.forward net [| 1. |] : float array));
  Alcotest.check_raises "wrong score input size" (Invalid_argument "Mlp.score: input dimension mismatch")
    (fun () -> ignore (Mlp.score net [| 1.; 2.; 3.; 4. |] : float));
  let train data ~batch_size = ignore (Mlp.train net ~rng ~epochs:1 ~batch_size ~lr:0.1 data : float) in
  Alcotest.check_raises "short training input" (Invalid_argument "Mlp.train: sample dimension mismatch")
    (fun () -> train [| ([| 1.; 2.; 3. |], [| 1. |]); ([| 1. |], [| 0. |]) |] ~batch_size:1);
  Alcotest.check_raises "wide training target" (Invalid_argument "Mlp.train: sample dimension mismatch")
    (fun () -> train [| ([| 1.; 2.; 3. |], [| 1.; 0. |]) |] ~batch_size:1);
  Alcotest.check_raises "empty batches" (Invalid_argument "Mlp.train: batch_size must be positive")
    (fun () -> train [| ([| 1.; 2.; 3. |], [| 1. |]) |] ~batch_size:0)

let test_deterministic_init () =
  let a = Mlp.create ~rng:(Rng.create 5) ~layers:[ 4; 8; 1 ] () in
  let b = Mlp.create ~rng:(Rng.create 5) ~layers:[ 4; 8; 1 ] () in
  let x = [| 0.5; -0.25; 1.0; 2.0 |] in
  check_float "same seed, same net" (Mlp.forward a x).(0) (Mlp.forward b x).(0)

let test_sigmoid_range () =
  let rng = Rng.create 2 in
  let net = Mlp.create ~rng ~layers:[ 2; 4; 1 ] () in
  for _ = 1 to 100 do
    let x = [| Rng.gaussian rng ~mu:0. ~sigma:5.; Rng.gaussian rng ~mu:0. ~sigma:5. |] in
    let y = (Mlp.forward net x).(0) in
    check_bool "sigmoid output in (0,1)" true (y > 0. && y < 1.)
  done

let test_learns_xor () =
  let rng = Rng.create 3 in
  let net = Mlp.create ~rng ~layers:[ 2; 8; 1 ] ~hidden:Mlp.Tanh () in
  let data =
    [|
      ([| 0.; 0. |], [| 0. |]);
      ([| 0.; 1. |], [| 1. |]);
      ([| 1.; 0. |], [| 1. |]);
      ([| 1.; 1. |], [| 0. |]);
    |]
  in
  let loss = Mlp.train net ~rng ~epochs:2000 ~batch_size:4 ~lr:0.5 data in
  check_bool "XOR loss small" true (loss < 0.05);
  Array.iter
    (fun (x, y) ->
      check_int (Printf.sprintf "xor(%g,%g)" x.(0) x.(1)) (int_of_float y.(0))
        (if (Mlp.forward net x).(0) >= 0.5 then 1 else 0))
    data

let test_learns_linear_regression () =
  let rng = Rng.create 4 in
  let net = Mlp.create ~rng ~layers:[ 1; 6; 1 ] ~output:Mlp.Linear () in
  let data = Array.init 200 (fun i ->
      let x = float_of_int i /. 100. -. 1. in
      ([| x |], [| (2. *. x) +. 0.5 |]))
  in
  ignore (Mlp.train net ~rng ~epochs:300 ~batch_size:16 ~lr:0.05 data : float);
  let y = (Mlp.forward net [| 0.3 |]).(0) in
  check_bool "fits 2x+0.5 at 0.3" true (Float.abs (y -. 1.1) < 0.1)

let test_training_reduces_loss () =
  let rng = Rng.create 6 in
  let net = Mlp.create ~rng ~layers:[ 2; 6; 1 ] () in
  let data =
    Array.init 100 (fun _ ->
        let a = Rng.float rng 1. and b = Rng.float rng 1. in
        ([| a; b |], [| (if a > b then 1. else 0.) |]))
  in
  let first = Mlp.train net ~rng ~epochs:1 ~batch_size:16 ~lr:0.2 data in
  let last = Mlp.train net ~rng ~epochs:50 ~batch_size:16 ~lr:0.2 data in
  check_bool "loss decreased" true (last < first)

let test_flops () =
  let rng = Rng.create 7 in
  let net = Mlp.create ~rng ~layers:[ 4; 8; 2 ] () in
  check_int "flops" ((8 * 5) + (2 * 9)) (Mlp.flops_per_forward net)

let test_copy_independent () =
  let rng = Rng.create 8 in
  let net = Mlp.create ~rng ~layers:[ 1; 4; 1 ] () in
  let snapshot = Mlp.copy net in
  let x = [| 0.7 |] in
  let before = (Mlp.forward net x).(0) in
  ignore
    (Mlp.train net ~rng ~epochs:50 ~batch_size:4 ~lr:0.5 [| ([| 0.7 |], [| 0.1 |]) |] : float);
  check_float "copy unchanged by training" before (Mlp.forward snapshot x).(0);
  check_bool "original changed" true ((Mlp.forward net x).(0) <> before)

(* A copy owns its inference buffers: the original and its copy, each
   run by its own domain at the same time, predict what each predicts
   alone. Shared buffers would let one domain's inference overwrite the
   other's layer outputs mid-pass. *)
let test_copy_owns_buffers () =
  let rng = Rng.create 10 in
  let net = Mlp.create ~rng ~layers:[ 3; 16; 16; 1 ] ~hidden:Mlp.Tanh () in
  let twin = Mlp.copy net in
  let probes = Array.init 64 (fun _ -> Array.init 3 (fun _ -> Rng.gaussian rng ~mu:0. ~sigma:2.)) in
  let run m = Array.init 4000 (fun k -> Mlp.score m probes.(k mod 64)) in
  let alone = run net in
  Alcotest.(check (array (float 0.))) "copy alone predicts as the original" alone (run twin);
  let other = Domain.spawn (fun () -> run twin) in
  let mine = run net in
  Alcotest.(check (array (float 0.))) "original beside its copy" alone mine;
  Alcotest.(check (array (float 0.))) "copy beside the original" alone (Domain.join other);
  let interleaved = Array.map (fun x -> (Mlp.score net x, (Mlp.forward twin x).(0))) probes in
  Array.iteri
    (fun k (a, b) ->
      check_float "interleaved original" alone.(k) a;
      check_float "interleaved copy" alone.(k) b)
    interleaved

(* Training allocates its working set once per call: what one more
   epoch costs (the difference between a 2-epoch and a 1-epoch call,
   so the per-call buffers and data copy cancel) is the same at 8 and
   at 256 samples per batch, over a fixed 4 batches. What remains is
   one boxed batch loss per batch. The second net's widths are not
   multiples of four, so every layer's forward, gradient and delta
   loops also run their one-at-a-time remainders. *)
let test_training_allocates_nothing_per_sample () =
  let epoch_words ~layers ~per_batch =
    let n = 4 * per_batch in
    let data =
      Array.init n (fun i ->
          let x = float_of_int i /. float_of_int n in
          ([| x; 1. -. x; x *. x |], [| (if x > 0.5 then 1. else 0.) |]))
    in
    let words epochs =
      let net = Mlp.create ~rng:(Rng.create 11) ~layers () in
      let rng = Rng.create 12 in
      let w0 = Gc.minor_words () in
      ignore (Mlp.train net ~rng ~epochs ~batch_size:per_batch ~lr:0.05 data : float);
      Gc.minor_words () -. w0
    in
    words 2 -. words 1
  in
  List.iter
    (fun layers ->
      let small = epoch_words ~layers ~per_batch:8 and large = epoch_words ~layers ~per_batch:256 in
      Alcotest.(check (float 0.)) "epoch words independent of samples" small large;
      Alcotest.(check (float 0.)) "one boxed loss per batch" (4. *. 2.) large)
    [ [ 3; 16; 16; 1 ]; [ 3; 7; 5; 1 ] ]

(* ---------- differential: flat kernel vs nested-array reference ---------- *)

let activations = [ Mlp.Relu; Mlp.Sigmoid; Mlp.Tanh; Mlp.Linear ]

let same_bits a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)) a b

(* A random 3-5 layer net of width 1-19, trained for 1-3 epochs on
   [full] batches of [batch_size] plus a ragged batch of [rest]
   samples, with every hidden/output activation pair: the final epoch
   loss, every training input's output and random probes' outputs
   match the reference bit for bit. One hidden layer is 5-19 wide and
   not a multiple of four, so every case runs the kernel's four-lane
   blocks and their remainders, forward and in back-propagation. *)
let mlp_matches_reference =
  let open QCheck2.Gen in
  let case =
    let* widths = list_size (int_range 2 4) (int_range 1 19) in
    let* wide = oneofl [ 5; 6; 7; 9; 10; 11; 13; 14; 15; 17; 18; 19 ] in
    let* at = int_range 1 (List.length widths - 1) in
    let sizes = List.filteri (fun k _ -> k < at) widths @ (wide :: List.filteri (fun k _ -> k >= at) widths) in
    let* batch_size = int_range 1 12 in
    let* full = int_range 0 4 and* rest = int_range 0 11 in
    let* epochs = int_range 1 3 and* lr = float_range 0.01 0.5 and* seed = nat in
    return (sizes, batch_size, max 1 ((full * batch_size) + (rest mod batch_size)), epochs, lr, seed)
  in
  let print (sizes, batch_size, n, epochs, lr, seed) =
    Printf.sprintf "layers [%s], batch_size %d, %d samples, %d epochs, lr %h, seed %d"
      (String.concat "; " (List.map string_of_int sizes))
      batch_size n epochs lr seed
  in
  QCheck2.Test.make ~name:"flat mlp matches the nested reference bit for bit" ~count:60 ~print case
    (fun (sizes, batch_size, n, epochs, lr, seed) ->
      let r = Rng.create seed in
      let n_in = List.hd sizes and n_out = List.nth sizes (List.length sizes - 1) in
      let input () = Array.init n_in (fun _ -> Rng.gaussian r ~mu:0. ~sigma:2.) in
      let data = Array.init n (fun _ -> (input (), Array.init n_out (fun _ -> Rng.float r 1.))) in
      let probes = Array.init 8 (fun _ -> input ()) in
      List.for_all
        (fun hidden ->
          List.for_all
            (fun output ->
              let net = Mlp.create ~rng:(Rng.create seed) ~layers:sizes ~hidden ~output () in
              let ref_net = Mlp_ref.create ~rng:(Rng.create seed) ~layers:sizes ~hidden ~output () in
              let loss = Mlp.train net ~rng:(Rng.create (seed + 1)) ~epochs ~batch_size ~lr data in
              let ref_loss =
                Mlp_ref.train ref_net ~rng:(Rng.create (seed + 1)) ~epochs ~batch_size ~lr data
              in
              let agrees x =
                let want = Mlp_ref.forward ref_net x in
                same_bits want (Mlp.forward net x) && same_bits [| want.(0) |] [| Mlp.score net x |]
              in
              same_bits [| ref_loss |] [| loss |]
              && Array.for_all (fun (x, _) -> agrees x) data
              && Array.for_all agrees probes)
            activations)
        activations)

(* ---------- scorer: the hand-written sequences it replaces ---------- *)

(* A random 2-4 layer net with random activations, fitted with and
   without a scaler on random data: [Scorer.fit] builds the net the
   hand sequence builds ([Mlp.create] from [Rng.fork rng], then
   [Mlp.train ~rng] on the scaled examples), and [score_of] and
   [input]/[score] answer [(Mlp.forward (mlp s) (Scaler.transform sc
   x)).(0)] bit for bit, leaving [x] untouched. *)
let scorer_matches_hand_sequence =
  let open QCheck2.Gen in
  let case =
    let* sizes = list_size (int_range 2 4) (int_range 1 12) in
    let* hidden = oneofl activations and* output = oneofl activations in
    let* n = int_range 1 40 and* epochs = int_range 1 3 and* seed = nat in
    return (sizes, hidden, output, n, epochs, seed)
  in
  let print (sizes, _, _, n, epochs, seed) =
    Printf.sprintf "layers [%s], %d samples, %d epochs, seed %d"
      (String.concat "; " (List.map string_of_int sizes))
      n epochs seed
  in
  QCheck2.Test.make ~name:"scorer matches the hand-written fit and forward" ~count:60 ~print case
    (fun (layers, hidden, output, n, epochs, seed) ->
      let r = Rng.create seed in
      let n_in = List.hd layers and n_out = List.nth layers (List.length layers - 1) in
      let input () = Array.init n_in (fun _ -> Rng.gaussian r ~mu:3. ~sigma:5.) in
      let data = Array.init n (fun _ -> (input (), Array.init n_out (fun _ -> Rng.float r 1.))) in
      let probes = Array.init 16 (fun _ -> input ()) in
      let fitted scaler =
        let s =
          Scorer.fit ~rng:(Rng.create seed) ?scaler ~layers ~hidden ~output ~epochs ~batch_size:8
            ~lr:0.05 data
        in
        let rng = Rng.create seed in
        let hand = Mlp.create ~rng:(Rng.fork rng) ~layers ~hidden ~output () in
        let scale x = match scaler with Some sc -> Scaler.transform sc x | None -> x in
        ignore
          (Mlp.train hand ~rng ~epochs ~batch_size:8 ~lr:0.05
             (Array.map (fun (x, y) -> (scale x, y)) data)
            : float);
        Array.for_all
          (fun x ->
            let kept = Array.copy x in
            let via_score_of = Scorer.score_of s x in
            Array.blit x 0 (Scorer.input s) 0 n_in;
            let via_input = Scorer.score s in
            let want = (Mlp.forward (Scorer.mlp s) (scale x)).(0) in
            let hand_want = (Mlp.forward hand (scale x)).(0) in
            same_bits [| want; want; want |] [| via_score_of; via_input; hand_want |]
            && same_bits kept x)
          probes
      in
      fitted None && fitted (Some (Scaler.fit (Array.map fst data))))

let test_scorer_rejects_bad_input () =
  let data = [| ([| 1.; 2. |], [| 0. |]); ([| 3.; 5. |], [| 1. |]) |] in
  List.iter
    (fun scaler ->
      let s =
        Scorer.fit ~rng:(Rng.create 1) ?scaler ~layers:[ 2; 1 ] ~epochs:1 ~batch_size:2 ~lr:0.1 data
      in
      check_int "input buffer sized to the net" 2 (Array.length (Scorer.input s));
      match Scorer.score_of s [| 1. |] with
      | _ -> Alcotest.fail "short input accepted"
      | exception Invalid_argument _ -> ())
    [ None; Some (Scaler.fit (Array.map fst data)) ]

let test_scaler_zscores () =
  let rows = [| [| 1.; 10. |]; [| 2.; 20. |]; [| 3.; 30. |] |] in
  let s = Scaler.fit rows in
  check_int "dim" 2 (Scaler.dim s);
  check_float "mean col0" 2. (Scaler.mean s 0);
  let z = Scaler.transform s [| 2.; 20. |] in
  check_float "centered" 0. z.(0);
  check_float "centered col1" 0. z.(1);
  let z2 = Scaler.transform s [| 3.; 30. |] in
  check_bool "unit-ish scale" true (Float.abs (z2.(0) -. (1. /. Scaler.stddev s 0)) < 1e-9 || z2.(0) > 0.)

let test_scaler_constant_column () =
  let rows = [| [| 5.; 1. |]; [| 5.; 2. |] |] in
  let s = Scaler.fit rows in
  let z = Scaler.transform s [| 5.; 1.5 |] in
  check_float "zero-variance column passes through" 5. z.(0)

let suite =
  [
    ( "nn.mlp",
      [
        Alcotest.test_case "shapes" `Quick test_shapes;
        Alcotest.test_case "bad shapes rejected" `Quick test_bad_shapes_rejected;
        Alcotest.test_case "deterministic init" `Quick test_deterministic_init;
        Alcotest.test_case "sigmoid output range" `Quick test_sigmoid_range;
        Alcotest.test_case "learns XOR" `Slow test_learns_xor;
        Alcotest.test_case "learns linear regression" `Quick test_learns_linear_regression;
        Alcotest.test_case "training reduces loss" `Quick test_training_reduces_loss;
        Alcotest.test_case "flops per forward" `Quick test_flops;
        Alcotest.test_case "copy is independent" `Quick test_copy_independent;
        Alcotest.test_case "copy owns its buffers" `Quick test_copy_owns_buffers;
        Alcotest.test_case "training allocates nothing per sample" `Quick
          test_training_allocates_nothing_per_sample;
        QCheck_alcotest.to_alcotest mlp_matches_reference;
      ] );
    ( "nn.scorer",
      [
        Alcotest.test_case "rejects bad input" `Quick test_scorer_rejects_bad_input;
        QCheck_alcotest.to_alcotest scorer_matches_hand_sequence;
      ] );
    ( "nn.scaler",
      [
        Alcotest.test_case "z-scores" `Quick test_scaler_zscores;
        Alcotest.test_case "constant column" `Quick test_scaler_constant_column;
      ] );
  ]
