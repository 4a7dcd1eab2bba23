open Gr_util

type t = { mlp : Mlp.t; scaler : Scaler.t option; input : float array }

let fit ~rng ?scaler ~layers ?hidden ?output ~epochs ~batch_size ~lr data =
  let data =
    match scaler with
    | None -> data
    | Some s -> Array.map (fun (x, y) -> (Scaler.transform s x, y)) data
  in
  let mlp = Mlp.create ~rng:(Rng.fork rng) ~layers ?hidden ?output () in
  ignore (Mlp.train mlp ~rng ~epochs ~batch_size ~lr data : float);
  { mlp; scaler; input = Array.make (Mlp.input_dim mlp) 0. }

let input t = t.input

(* Inlined where the caller sees this module's body (release builds),
   so the result stays an unboxed float. *)
let[@inline] score t =
  (match t.scaler with None -> () | Some s -> Scaler.transform_into s t.input t.input);
  Mlp.score t.mlp t.input

let[@inline] score_of t x =
  (match t.scaler with
  | Some s -> Scaler.transform_into s x t.input
  | None ->
    if Array.length x <> Array.length t.input then
      invalid_arg "Scorer.score_of: dimension mismatch";
    Array.blit x 0 t.input 0 (Array.length x));
  Mlp.score t.mlp t.input

let mlp t = t.mlp
let scaler t = t.scaler
let copy t = { t with mlp = Mlp.copy t.mlp; input = Array.make (Array.length t.input) 0. }
