open Gr_util
open Gr_nn

type t = {
  rng : Rng.t;
  mean_gap_ms : float;
  epochs : int;
  mutable scorer : Scorer.t;
  mutable retrains : int;
  mutable features : float array array;
}

(* An access is a positive example when its page is reused within
   this many subsequent accesses. *)
let reuse_horizon = 64

(* Builds (features, reused-soon) examples by replaying the trace and
   tracking per-page access counts and last-access indices. The
   occupancy feature is approximated by the fraction of distinct pages
   seen so far, capped at 1 — offline we have no real fast tier. *)
let dataset ~mean_gap_ms trace =
  let n = Array.length trace in
  let last_seen = Hashtbl.create 256 and counts = Hashtbl.create 256 in
  let next_use = Array.make n max_int in
  let next_seen = Hashtbl.create 256 in
  for i = n - 1 downto 0 do
    (match Hashtbl.find_opt next_seen trace.(i) with
    | Some j -> next_use.(i) <- j
    | None -> ());
    Hashtbl.replace next_seen trace.(i) i
  done;
  let distinct = ref 0 in
  let samples = ref [] in
  Array.iteri
    (fun i page ->
      let count =
        match Hashtbl.find_opt counts page with
        | Some c -> c + 1
        | None ->
          incr distinct;
          1
      in
      Hashtbl.replace counts page count;
      let gap_ms =
        match Hashtbl.find_opt last_seen page with
        | Some j -> float_of_int (i - j) *. mean_gap_ms
        | None -> 1e9
      in
      Hashtbl.replace last_seen page i;
      (* Offline proxy for fast-tier occupancy: saturates once the
         distinct-page count passes a typical tier size, matching the
         online signal (which is ~1 whenever the tier is warm). An
         unsaturated proxy would leak trace position into training. *)
      let occupancy = Float.min 1. (float_of_int !distinct /. 256.) in
      let feature = [| float_of_int count; gap_ms; occupancy |] in
      let label = if next_use.(i) - i <= reuse_horizon then 1. else 0. in
      samples := (feature, [| label |]) :: !samples)
    trace;
  Array.of_list (List.rev !samples)

(* Access counts and gaps span many orders of magnitude (a first
   touch has an effectively infinite gap); log-compress them so the
   scaler and the network see well-conditioned inputs. *)
let[@inline] shape_into x features =
  x.(0) <- log1p features.(0);
  x.(1) <- log1p features.(1);
  x.(2) <- features.(2)

let shape features =
  let x = Array.make 3 0. in
  shape_into x features;
  x

let fit ~rng ~mean_gap_ms ~epochs trace =
  let raw = dataset ~mean_gap_ms trace in
  let shaped = Array.map (fun (x, y) -> (shape x, y)) raw in
  let scaler = Scaler.fit (Array.map fst shaped) in
  ( Array.map fst raw,
    Scorer.fit ~rng ~scaler ~layers:[ 3; 12; 1 ] ~epochs ~batch_size:32 ~lr:0.1 shaped )

let train ~rng ~trace ?(mean_gap_ms = 0.05) ?(epochs = 15) () =
  let rng = Rng.fork rng in
  let features, scorer = fit ~rng ~mean_gap_ms ~epochs trace in
  { rng; mean_gap_ms; epochs; scorer; retrains = 0; features }

let scorer t = t.scorer

let[@inline] score t features =
  shape_into (Scorer.input t.scorer) features;
  Scorer.score t.scorer

let predict_promote t features = score t features >= 0.5

let policy t =
  {
    Gr_kernel.Mm.policy_name = "learned-tiering";
    promote = (fun features -> predict_promote t features);
  }

let retrain t ~trace =
  t.retrains <- t.retrains + 1;
  let features, scorer = fit ~rng:t.rng ~mean_gap_ms:t.mean_gap_ms ~epochs:t.epochs trace in
  t.features <- features;
  t.scorer <- scorer

let retrain_count t = t.retrains
let training_features t = t.features
