open Gr_util
open Gr_nn

type key_state = { mutable last_access : int; mutable count : int }

type t = {
  rng : Rng.t;
  epochs : int;
  mutable scorer : Scorer.t;
  mutable retrains : int;
  mutable tick : int; (* logical access clock *)
  table : (int, key_state) Hashtbl.t;
}

(* A key's (recency, frequency), the never-seen one's as in training. *)
let[@inline] features_into t key x =
  match Hashtbl.find t.table key with
  | st ->
    x.(0) <- float_of_int (t.tick - st.last_access);
    x.(1) <- float_of_int st.count
  | exception Not_found ->
    x.(0) <- 1e6;
    x.(1) <- 0.

(* Training examples: at each access, (recency, frequency) of the key
   versus the distance to its next use. Output is log1p(distance) so
   the regression target stays in a small range. *)
let dataset trace =
  let n = Array.length trace in
  let next_use = Array.make n (2 * n) in
  let next_seen = Hashtbl.create 256 in
  for i = n - 1 downto 0 do
    (match Hashtbl.find_opt next_seen trace.(i) with Some j -> next_use.(i) <- j | None -> ());
    Hashtbl.replace next_seen trace.(i) i
  done;
  let state = Hashtbl.create 256 in
  let samples = ref [] in
  Array.iteri
    (fun i key ->
      let recency, count =
        match Hashtbl.find_opt state key with
        | Some (last, c) -> (float_of_int (i - last), float_of_int c)
        | None -> (1e6, 0.)
      in
      Hashtbl.replace state key
        (i, match Hashtbl.find_opt state key with Some (_, c) -> c + 1 | None -> 1);
      let distance = float_of_int (next_use.(i) - i) in
      samples := ([| recency; count |], [| log1p distance |]) :: !samples)
    trace;
  Array.of_list (List.rev !samples)

let fit ~rng ~epochs trace =
  let raw = dataset trace in
  Scorer.fit ~rng ~scaler:(Scaler.fit (Array.map fst raw)) ~layers:[ 2; 10; 1 ] ~output:Mlp.Linear
    ~epochs ~batch_size:32 ~lr:0.02 raw

let train ~rng ~hooks ~trace ?(epochs = 10) () =
  let rng = Rng.fork rng in
  let t =
    {
      rng;
      epochs;
      scorer = fit ~rng ~epochs trace;
      retrains = 0;
      tick = 0;
      table = Hashtbl.create 1024;
    }
  in
  ignore
    (Gr_kernel.Hooks.subscribe hooks "cache:access" (fun args ->
         match List.assoc_opt "key" args with
         | None -> ()
         | Some key ->
           let key = int_of_float key in
           t.tick <- t.tick + 1;
           (match Hashtbl.find_opt t.table key with
           | Some st ->
             st.last_access <- t.tick;
             st.count <- st.count + 1
           | None -> Hashtbl.add t.table key { last_access = t.tick; count = 1 }))
      : Gr_kernel.Hooks.subscription);
  t

let scorer t = t.scorer

let[@inline] predicted_reuse_distance t key =
  features_into t key (Scorer.input t.scorer);
  Scorer.score t.scorer

let policy t =
  {
    Gr_kernel.Cache.policy_name = "learned-reuse";
    choose_victim =
      (fun ~candidates ->
        let best = ref candidates.(0) and best_score = ref neg_infinity in
        for i = 0 to Array.length candidates - 1 do
          let key = candidates.(i) in
          let score = predicted_reuse_distance t key in
          if score > !best_score then begin
            best := key;
            best_score := score
          end
        done;
        !best);
  }

let retrain t ~trace =
  t.retrains <- t.retrains + 1;
  t.scorer <- fit ~rng:t.rng ~epochs:t.epochs trace

let retrain_count t = t.retrains
