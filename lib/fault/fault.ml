open Gr_util

type corruption = Nan | Huge | Neg_huge | Value of float
type chaos = Stuck_trust | Stuck_revoke | Flip

type kind =
  | Gc_storm of { device : int; duration : Time_ns.t }
  | Device_death of { device : int; duration : Time_ns.t }
  | Hook_exn of { hook : string; count : int }
  | Evict_burst of { key : string; burst : int }
  | Corrupt_key of { key : string; corruption : corruption }
  | Policy_chaos of { chaos : chaos }
  | Clock_skew of { by : Time_ns.t }

type fault = { at : Time_ns.t; kind : kind }
type plan = fault list

(* The textual form is the repro interface: integer nanoseconds and
   %.17g floats so parsing a printed plan reconstructs it exactly. *)

let float_lit f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let corruption_to_string = function
  | Nan -> "nan"
  | Huge -> "huge"
  | Neg_huge -> "neghuge"
  | Value f -> float_lit f

let chaos_to_string = function
  | Stuck_trust -> "trust"
  | Stuck_revoke -> "revoke"
  | Flip -> "flip"

let fault_to_string { at; kind } =
  match kind with
  | Gc_storm { device; duration } -> Printf.sprintf "gc-storm@%d:dev=%d,dur=%d" at device duration
  | Device_death { device; duration } ->
    Printf.sprintf "dev-death@%d:dev=%d,dur=%d" at device duration
  | Hook_exn { hook; count } -> Printf.sprintf "hook-exn@%d:hook=%s,n=%d" at hook count
  | Evict_burst { key; burst } -> Printf.sprintf "evict@%d:key=%s,n=%d" at key burst
  | Corrupt_key { key; corruption } ->
    Printf.sprintf "corrupt@%d:key=%s,v=%s" at key (corruption_to_string corruption)
  | Policy_chaos { chaos } -> Printf.sprintf "policy-chaos@%d:mode=%s" at (chaos_to_string chaos)
  | Clock_skew { by } -> Printf.sprintf "skew@%d:by=%d" at by

let plan_to_string plan = String.concat ";" (List.map fault_to_string plan)

(* Parsing. Each fault is [kind@NS:k=v,...]; the args part splits on
   ',' and each binding on its first '=', so values may contain ':'
   (hook names like "blk:io_complete"). *)

let ( let* ) = Result.bind

let split_once ~on s =
  match String.index_opt s on with
  | None -> None
  | Some i -> Some (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))

let parse_int ~what s =
  match int_of_string_opt s with
  | Some n -> Ok n
  | None -> Error (Printf.sprintf "%s: expected an integer, got %S" what s)

let parse_args s =
  let bindings = String.split_on_char ',' s in
  List.fold_left
    (fun acc binding ->
      let* acc = acc in
      match split_once ~on:'=' binding with
      | Some (k, v) when k <> "" -> Ok ((k, v) :: acc)
      | _ -> Error (Printf.sprintf "malformed argument %S (expected key=value)" binding))
    (Ok []) bindings

let lookup ~what args k =
  match List.assoc_opt k args with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "%s: missing argument %S" what k)

let parse_corruption = function
  | "nan" -> Ok Nan
  | "huge" -> Ok Huge
  | "neghuge" -> Ok Neg_huge
  | s -> (
    match float_of_string_opt s with
    | Some f -> Ok (Value f)
    | None -> Error (Printf.sprintf "corrupt: bad value %S" s))

let parse_chaos = function
  | "trust" -> Ok Stuck_trust
  | "revoke" -> Ok Stuck_revoke
  | "flip" -> Ok Flip
  | s -> Error (Printf.sprintf "policy-chaos: unknown mode %S" s)

let fault_of_string s =
  let* name, rest =
    match split_once ~on:'@' s with
    | Some x -> Ok x
    | None -> Error (Printf.sprintf "fault %S: missing '@time'" s)
  in
  let* at_str, args_str =
    match split_once ~on:':' rest with
    | Some x -> Ok x
    | None -> Error (Printf.sprintf "fault %S: missing ':args'" s)
  in
  let* at = parse_int ~what:name at_str in
  let* args = parse_args args_str in
  let* kind =
    match name with
    | "gc-storm" ->
      let* dev = lookup ~what:name args "dev" in
      let* dur = lookup ~what:name args "dur" in
      let* device = parse_int ~what:name dev in
      let* duration = parse_int ~what:name dur in
      Ok (Gc_storm { device; duration })
    | "dev-death" ->
      let* dev = lookup ~what:name args "dev" in
      let* dur = lookup ~what:name args "dur" in
      let* device = parse_int ~what:name dev in
      let* duration = parse_int ~what:name dur in
      Ok (Device_death { device; duration })
    | "hook-exn" ->
      let* hook = lookup ~what:name args "hook" in
      let* n = lookup ~what:name args "n" in
      let* count = parse_int ~what:name n in
      Ok (Hook_exn { hook; count })
    | "evict" ->
      let* key = lookup ~what:name args "key" in
      let* n = lookup ~what:name args "n" in
      let* burst = parse_int ~what:name n in
      Ok (Evict_burst { key; burst })
    | "corrupt" ->
      let* key = lookup ~what:name args "key" in
      let* v = lookup ~what:name args "v" in
      let* corruption = parse_corruption v in
      Ok (Corrupt_key { key; corruption })
    | "policy-chaos" ->
      let* mode = lookup ~what:name args "mode" in
      let* chaos = parse_chaos mode in
      Ok (Policy_chaos { chaos })
    | "skew" ->
      let* by_str = lookup ~what:name args "by" in
      let* by = parse_int ~what:name by_str in
      Ok (Clock_skew { by })
    | _ -> Error (Printf.sprintf "unknown fault kind %S" name)
  in
  Ok { at; kind }

let plan_of_string s =
  let s = String.trim s in
  if s = "" then Ok []
  else
    List.fold_left
      (fun acc frag ->
        let* acc = acc in
        let* f = fault_of_string (String.trim frag) in
        Ok (f :: acc))
      (Ok [])
      (String.split_on_char ';' s)
    |> Result.map List.rev

(* Generation: only fault kinds the scenario can absorb, times away
   from the run's edges so faults land while the workload is hot and
   their aftermath is still observed. *)

type caps = { n_devices : int; keys : string list; hooks : string list; blk_policy : bool }

let gen ~rng ~caps ~n ~horizon =
  let pick l = List.nth l (Rng.int rng (List.length l)) in
  let dur lo hi = Time_ns.ms (lo + Rng.int rng (hi - lo)) in
  let generators =
    List.concat
      [
        (if caps.n_devices > 0 then
           [
             (fun () ->
               Gc_storm { device = Rng.int rng caps.n_devices; duration = dur 20 150 });
             (fun () ->
               Device_death { device = Rng.int rng caps.n_devices; duration = dur 30 300 });
           ]
         else []);
        (if caps.hooks <> [] then
           [ (fun () -> Hook_exn { hook = pick caps.hooks; count = 1 + Rng.int rng 6 }) ]
         else []);
        (if caps.keys <> [] then
           [
             (fun () -> Evict_burst { key = pick caps.keys; burst = 64 + Rng.int rng 448 });
             (fun () ->
               let corruption =
                 match Rng.int rng 4 with
                 | 0 -> Nan
                 | 1 -> Huge
                 | 2 -> Neg_huge
                 | _ -> Value (Rng.gaussian rng ~mu:0. ~sigma:1e9)
               in
               Corrupt_key { key = pick caps.keys; corruption });
           ]
         else []);
        (if caps.blk_policy then
           [
             (fun () ->
               let chaos =
                 match Rng.int rng 3 with 0 -> Stuck_trust | 1 -> Stuck_revoke | _ -> Flip
               in
               Policy_chaos { chaos });
           ]
         else []);
        [ (fun () -> Clock_skew { by = dur 1 300 }) ];
      ]
  in
  let lo = horizon / 20 and hi = horizon * 4 / 5 in
  let faults =
    List.init n (fun _ ->
        let at = lo + Rng.int rng (max 1 (hi - lo)) in
        let kind = (pick generators) () in
        { at; kind })
  in
  List.stable_sort (fun a b -> Time_ns.compare a.at b.at) faults
