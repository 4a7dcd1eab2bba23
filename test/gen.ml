(* QCheck generators for random guardrail ASTs, shared by the DSL
   round-trip tests and the compiler equivalence tests. *)

open Gr_dsl.Ast

let pos = { line = 1; col = 1 }

(* Scoped keys ride along in every generator: GLOBAL(...) parses to
   its canonical [Ast.global_key] encoding, so the round-trip and
   compiler-equivalence properties cover fleet-scoped keys for free. *)
let key_gen =
  QCheck2.Gen.oneofl
    [ "lat"; "rate"; "depth"; "err"; "load_avg"; global_key "lat"; global_key "pressure" ]

let small_float =
  (* Closed set of well-behaved literals: round-trips through the
     printer exactly and avoids NaN/overflow noise in equivalence
     checks. *)
  QCheck2.Gen.oneofl [ 0.; 1.; 2.; 0.5; 10.; 100.; 0.05; 3.25; 42. ]

let agg_gen = QCheck2.Gen.oneofl [ Avg; Rate; Count; Sum; Min; Max; Stddev; Quantile; Delta ]

let agg_leaf =
  let open QCheck2.Gen in
  map3
    (fun fn key window ->
      let param = if fn = Quantile then Some (at pos (Number 0.9)) else None in
      at pos (Agg { fn; key; window = at pos (Number window); param }))
    agg_gen key_gen
    (oneofl [ 1e6; 1e9; 5e8 ])

let num_leaf =
  let open QCheck2.Gen in
  oneof
    [
      map (fun f -> at pos (Number f)) small_float;
      map (fun k -> at pos (Load k)) key_gen;
      agg_leaf;
    ]

let num_gen depth =
  let open QCheck2.Gen in
  fix
    (fun self n ->
      if n = 0 then num_leaf
      else
        oneof
          [
            num_leaf;
            map (fun e -> at pos (Unop (Neg, e))) (self (n - 1));
            map (fun e -> at pos (Unop (Abs, e))) (self (n - 1));
            map3
              (fun op l r -> at pos (Binop (op, l, r)))
              (oneofl [ Add; Sub; Mul; Div ])
              (self (n - 1))
              (self (n - 1));
          ])
    depth

let bool_leaf =
  let open QCheck2.Gen in
  oneof
    [
      map (fun b -> at pos (Bool b)) bool;
      map3
        (fun op l r -> at pos (Binop (op, l, r)))
        (oneofl [ Lt; Le; Gt; Ge; Eq; Ne ])
        (num_gen 2) (num_gen 2);
    ]

let bool_gen depth =
  let open QCheck2.Gen in
  fix
    (fun self n ->
      if n = 0 then bool_leaf
      else
        oneof
          [
            bool_leaf;
            map (fun e -> at pos (Unop (Not, e))) (self (n - 1));
            map3
              (fun op l r -> at pos (Binop (op, l, r)))
              (oneofl [ And; Or ])
              (self (n - 1))
              (self (n - 1));
          ])
    depth

let expr_gen = bool_gen 3

(* Strip positions so structural equality compares shape only. *)
let rec strip (e : expr located) : expr located =
  let node =
    match e.node with
    | Number _ | Bool _ | Load _ -> e.node
    | Unop (op, sub) -> Unop (op, strip sub)
    | Binop (op, l, r) -> Binop (op, strip l, strip r)
    | Agg { fn; key; window; param } ->
      Agg { fn; key; window = strip window; param = Option.map strip param }
  in
  at pos node

(* A family of linear rules over one shared input list, the shape the
   JIT's linear banks group: every member sums the same inputs in the
   same order with the same operators (each term [k * x] or [x * k],
   added or subtracted) and draws its own constants, comparison and
   bound. [size] members; the inputs are LOADs of [keys] and, now and
   then, an aggregate. *)
let linear_family_gen ~keys ~size =
  let open QCheck2.Gen in
  let input =
    frequency
      [
        (4, map (fun k -> at pos (Load k)) (oneofl keys));
        ( 1,
          map
            (fun k -> at pos (Agg { fn = Avg; key = k; window = at pos (Number 1e9); param = None }))
            (oneofl keys) );
      ]
  in
  let term = triple input (oneofl [ Add; Sub ]) bool in
  (* A weight of 1 folds away (x * 1 is x), which changes the member's
     shape; it is kept rare so most families stay one shape. *)
  let weight = frequency [ (1, return 1.); (12, oneofl [ 0.; 2.; 0.5; 10.; 100.; 0.05; 3.25; 42. ]) ] in
  list_size (int_range 1 6) term >>= fun terms ->
  let member =
    map3
      (fun ks cmp bound ->
        let product (x, _, k_first) k =
          let k = at pos (Number k) in
          at pos (Binop (Mul, (if k_first then k else x), if k_first then x else k))
        in
        let sum =
          match List.combine terms ks with
          | [] -> assert false
          | (t, k) :: rest ->
            List.fold_left
              (fun acc (((_, op, _) as t), k) -> at pos (Binop (op, acc, product t k)))
              (product t k) rest
        in
        at pos (Binop (cmp, sum, at pos (Number bound))))
      (list_repeat (List.length terms) weight)
      (oneofl [ Lt; Le; Gt; Ge ])
      small_float
  in
  list_repeat size member

let trigger_gen =
  QCheck2.Gen.oneof
    [
      QCheck2.Gen.map
        (fun interval ->
          at pos
            (Timer
               { start = at pos (Number 0.); interval = at pos (Number interval); stop = None }))
        (QCheck2.Gen.oneofl [ 1e6; 1e9 ]);
      QCheck2.Gen.map (fun h -> at pos (Function h)) (QCheck2.Gen.oneofl [ "hook:a"; "hook:b" ]);
      QCheck2.Gen.map (fun k -> at pos (On_change k)) key_gen;
    ]

let action_gen =
  QCheck2.Gen.oneof
    [
      QCheck2.Gen.map (fun k -> at pos (Report { message = "violated"; keys = [ k ] })) key_gen;
      QCheck2.Gen.return (at pos (Replace "policy"));
      QCheck2.Gen.return (at pos (Retrain "policy"));
      QCheck2.Gen.map (fun k -> at pos (Save { key = k; value = at pos (Number 0.) })) key_gen;
      QCheck2.Gen.return (at pos (Deprioritize { cls = "batch"; weight = at pos (Number 64.) }));
    ]

let guardrail_gen =
  let open QCheck2.Gen in
  map3
    (fun triggers rules actions -> { name = "generated"; pos; triggers; rules; actions })
    (list_size (int_range 1 3) trigger_gen)
    (list_size (int_range 1 3) expr_gen)
    (list_size (int_range 1 3) action_gen)

(* Rewrite every key of a guardrail to its GLOBAL form — the
   all-global extreme of the scoped-key round-trip property. *)
let globalize_guardrail g =
  let gk k = if is_global_key k then k else global_key k in
  let rec globalize (e : expr located) =
    at e.pos
      (match e.node with
      | (Number _ | Bool _) as n -> n
      | Load k -> Load (gk k)
      | Unop (op, sub) -> Unop (op, globalize sub)
      | Binop (op, l, r) -> Binop (op, globalize l, globalize r)
      | Agg a -> Agg { a with key = gk a.key })
  in
  {
    g with
    triggers =
      List.map
        (fun (t : trigger located) ->
          at t.pos
            (match t.node with On_change k -> On_change (gk k) | other -> other))
        g.triggers;
    rules = List.map globalize g.rules;
    actions =
      List.map
        (fun (a : action located) ->
          at a.pos
            (match a.node with
            | Report r -> Report { r with keys = List.map gk r.keys }
            | Save s -> Save { s with key = gk s.key }
            | other -> other))
        g.actions;
  }

let strip_guardrail g =
  {
    g with
    triggers =
      List.map
        (fun (t : trigger located) ->
          at pos
            (match t.node with
            | Timer { start; interval; stop } ->
              Timer
                { start = strip start; interval = strip interval; stop = Option.map strip stop }
            | other -> other))
        g.triggers;
    rules = List.map strip g.rules;
    actions =
      List.map
        (fun (a : action located) ->
          at pos
            (match a.node with
            | Save { key; value } -> Save { key; value = strip value }
            | Deprioritize { cls; weight } -> Deprioritize { cls; weight = strip weight }
            | other -> other))
        g.actions;
  }
