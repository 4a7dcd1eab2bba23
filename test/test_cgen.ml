(* Tests for the C backend: structural checks on the emitted code, a
   gcc -Wall -Werror compile check, and a differential test that runs
   randomly generated rules through both the OCaml VM and the
   compiled C and compares results bit-for-bit. *)

module Cgen = Gr_compiler.Cgen
module Compile = Gr_compiler.Compile
module Lower = Gr_compiler.Lower
module Opt = Gr_compiler.Opt

let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec scan i = i + n <= h && (String.sub haystack i n = needle || scan (i + 1)) in
  scan 0

let listing2_monitors () =
  Compile.source_exn
    {|guardrail low-false-submit {
        trigger: { TIMER(0, 1s) }
        rule: { LOAD(false_submit_rate) <= 0.05 }
        action: { SAVE(ml_enabled, false) }
      }|}

let test_c_identifier () =
  check_string "hyphens" "low_false_submit" (Cgen.c_identifier "low-false-submit");
  check_string "leading digit" "_1abc" (Cgen.c_identifier "1abc");
  check_string "empty" "_anon" (Cgen.c_identifier "");
  check_string "plain" "ok_name" (Cgen.c_identifier "ok_name")

let test_structure () =
  let c = Cgen.spec (listing2_monitors ()) in
  List.iter
    (fun needle -> check_bool needle true (contains ~needle c))
    [
      "#include \"guardrail_rt.h\"";
      "static const char *const gr_low_false_submit_slots[]";
      "static double gr_rule_low_false_submit(struct gr_store *store)";
      "gr_timer(ctx, 0ULL, 1000000000ULL, GR_NO_STOP, gr_check_low_false_submit)";
      "gr_save(store, \"ml_enabled\", gr_low_false_submit_save_0(store))";
      "void gr_register_all(struct gr_ctx *ctx)";
    ]

let gcc_available =
  lazy (Sys.command "gcc --version > /dev/null 2>&1" = 0)

let in_temp_dir f =
  let dir = Filename.temp_file "cgen" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () -> ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir))))
    (fun () -> f dir)

let write_file path contents =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc contents)

let test_compiles_with_gcc () =
  if not (Lazy.force gcc_available) then ()
  else
    in_temp_dir (fun dir ->
        write_file (Filename.concat dir "guardrail_rt.h") Cgen.runtime_header;
        write_file (Filename.concat dir "monitors.c") (Cgen.spec (listing2_monitors ()));
        let cmd =
          Printf.sprintf "gcc -c -Wall -Werror -o %s %s -I %s 2> %s"
            (Filename.quote (Filename.concat dir "monitors.o"))
            (Filename.quote (Filename.concat dir "monitors.c"))
            (Filename.quote dir)
            (Filename.quote (Filename.concat dir "gcc.log"))
        in
        check_bool "gcc -Wall -Werror accepts generated code" true (Sys.command cmd = 0))

(* ---------- Differential semantics: C vs VM ---------- *)

let key_values =
  [ ("lat", 42.5); ("rate", 7.25); ("depth", 3.0); ("err", 0.0); ("load_avg", 19.5) ]

(* The differential harness has no real feature store, so replace
   aggregations by plain loads (aggregate semantics are covered by
   the OCaml-side equivalence tests). *)
let rec agg_free (e : Gr_dsl.Ast.expr Gr_dsl.Ast.located) =
  let open Gr_dsl.Ast in
  let node =
    match e.node with
    | Number _ | Bool _ | Load _ -> e.node
    | Unop (op, sub) -> Unop (op, agg_free sub)
    | Binop (op, l, r) -> Binop (op, agg_free l, agg_free r)
    | Agg { key; _ } -> Load key
  in
  { e with node }

let monitor_of_expr i expr =
  let open Gr_dsl.Ast in
  let pos = { line = 1; col = 1 } in
  Opt.optimize_monitor
    (Lower.guardrail
       {
         name = Printf.sprintf "g%d" i;
         pos;
         triggers =
           [ at pos (Timer { start = at pos (Number 0.); interval = at pos (Number 1e9); stop = None }) ];
         rules = [ expr ];
         actions = [ at pos (Report { message = "x"; keys = [] }) ];
       })

let harness n =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    {|
#include <stdio.h>
#include <string.h>
struct gr_store_impl { int dummy; };
double gr_load(struct gr_store *s, const char *key) {
  (void)s;
|};
  List.iter
    (fun (k, v) ->
      Buffer.add_string buf
        (Printf.sprintf "  if (!strcmp(key, %S)) return %.17g;\n" k v))
    key_values;
  Buffer.add_string buf
    {|  return 0.0;
}
double gr_agg(struct gr_store *s, const char *key, enum gr_agg_fn fn, uint64_t w, double p) {
  (void)s; (void)key; (void)fn; (void)w; (void)p; return 0.0;
}
void gr_report(struct gr_ctx *c, const char *m, const char *msg, const char *const *k, int n) { (void)c; (void)m; (void)msg; (void)k; (void)n; }
void gr_replace(struct gr_ctx *c, const char *p) { (void)c; (void)p; }
void gr_restore(struct gr_ctx *c, const char *p) { (void)c; (void)p; }
void gr_retrain(struct gr_ctx *c, const char *p) { (void)c; (void)p; }
void gr_deprioritize(struct gr_ctx *c, const char *cls, int w) { (void)c; (void)cls; (void)w; }
void gr_kill(struct gr_ctx *c, const char *cls) { (void)c; (void)cls; }
void gr_timer(struct gr_ctx *c, uint64_t a, uint64_t b, uint64_t d, gr_check_fn f) { (void)c; (void)a; (void)b; (void)d; (void)f; }
void gr_on_function(struct gr_ctx *c, const char *h, gr_check_fn f) { (void)c; (void)h; (void)f; }
void gr_on_change(struct gr_ctx *c, const char *k, gr_check_fn f) { (void)c; (void)k; (void)f; }
int main(void) {
  struct gr_store *store = 0;
|};
  for i = 0 to n - 1 do
    Buffer.add_string buf (Printf.sprintf "  printf(\"%%.17g\\n\", gr_rule_g%d(store));\n" i)
  done;
  Buffer.add_string buf "  return 0;\n}\n";
  Buffer.contents buf

let test_differential_vs_vm () =
  if not (Lazy.force gcc_available) then ()
  else begin
    (* Deterministically generate a batch of rules. *)
    let exprs =
      QCheck2.Gen.generate ~n:25 ~rand:(Random.State.make [| 2024 |]) Gen.expr_gen
      |> List.map agg_free
    in
    let monitors = List.mapi monitor_of_expr exprs in
    (* VM side: a store holding the fixed key values. *)
    let store = Gr_runtime.Feature_store.create ~clock:(fun () -> 0) () in
    List.iter (fun (k, v) -> Gr_runtime.Feature_store.save store k v) key_values;
    let vm_results =
      List.map
        (fun (m : Gr_compiler.Monitor.t) ->
          (Gr_runtime.Vm.run ~store ~slots:m.slots m.rule).value)
        monitors
    in
    (* C side: compile and run the same rules. *)
    let c_results =
      in_temp_dir (fun dir ->
          write_file (Filename.concat dir "guardrail_rt.h") Cgen.runtime_header;
          write_file
            (Filename.concat dir "monitors.c")
            (Cgen.spec monitors ^ harness (List.length monitors));
          let exe = Filename.concat dir "monitors" in
          let compile =
            Printf.sprintf "gcc -Wall -Wno-unused-function -o %s %s -I %s 2> %s"
              (Filename.quote exe)
              (Filename.quote (Filename.concat dir "monitors.c"))
              (Filename.quote dir)
              (Filename.quote (Filename.concat dir "gcc.log"))
          in
          check_bool "harness compiles" true (Sys.command compile = 0);
          let ic = Unix.open_process_in exe in
          let lines = ref [] in
          (try
             while true do
               lines := input_line ic :: !lines
             done
           with End_of_file -> ());
          ignore (Unix.close_process_in ic : Unix.process_status);
          List.rev_map float_of_string !lines)
    in
    Alcotest.(check int) "same count" (List.length vm_results) (List.length c_results);
    List.iteri
      (fun i (vm, c) ->
        check_bool (Printf.sprintf "rule %d agrees" i) true (Float.abs (vm -. c) < 1e-9))
      (List.combine vm_results c_results)
  end

(* ---------- specs/ corpus: emitted C vs every OCaml tier ---------- *)

module Vm = Gr_runtime.Vm
module Jit = Gr_runtime.Jit
module Fstore = Gr_runtime.Feature_store
module Monitor = Gr_compiler.Monitor

let agg_enum_name : Gr_dsl.Ast.agg -> string = function
  | Avg -> "GR_AGG_AVG"
  | Rate -> "GR_AGG_RATE"
  | Count -> "GR_AGG_COUNT"
  | Sum -> "GR_AGG_SUM"
  | Min -> "GR_AGG_MIN"
  | Max -> "GR_AGG_MAX"
  | Stddev -> "GR_AGG_STDDEV"
  | Quantile -> "GR_AGG_QUANTILE"
  | Delta -> "GR_AGG_DELTA"

(* cgen's float literal formatting, for matching the param argument
   the generated rule passes to gr_agg. *)
let c_float f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.17g" f

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let specs_dir () =
  List.find_opt Sys.file_exists [ "../../../specs"; "specs" ]

(* The whole shipped corpus, compiled and run under every engine tier
   AND through the C backend, against one pinned store snapshot. The
   OCaml store leaves all demands unregistered, so every tier takes
   the pure naive aggregation path (no streaming state mutates
   between runs); the C harness gets gr_load/gr_agg lookup tables
   whose entries are the OCaml store's own answers printed %.17g
   (shortest round-trippable), so any divergence isolates the rule
   arithmetic itself. Verdicts must agree bit-for-bit, three ways. *)
let test_corpus_c_vs_tiers () =
  if not (Lazy.force gcc_available) then ()
  else
    match specs_dir () with
    | None -> Alcotest.fail "specs/ corpus not found from the test runner"
    | Some dir ->
      let files =
        Sys.readdir dir |> Array.to_list
        |> List.filter (fun f -> Filename.check_suffix f ".grd")
        |> List.sort compare
      in
      check_bool "corpus found" true (List.length files >= 4);
      let monitors =
        List.concat_map (fun f -> Compile.source_exn (read_file (Filename.concat dir f))) files
      in
      (* Pinned store: deterministic samples for every key any rule
         reads, all inside the widest window the corpus uses. *)
      let clock = ref Gr_util.Time_ns.zero in
      let store = Fstore.create ~clock:(fun () -> !clock) () in
      let keys = Hashtbl.create 16 in
      List.iter
        (fun (m : Monitor.t) -> Array.iter (fun k -> Hashtbl.replace keys k ()) m.Monitor.slots)
        monitors;
      Hashtbl.iter
        (fun key () ->
          for i = 0 to 20 do
            clock := Gr_util.Time_ns.ms (i * 90);
            Fstore.save store key (float_of_int ((i * 7) mod 23) +. 0.5)
          done)
        keys;
      clock := Gr_util.Time_ns.ms 1900;
      (* C lookup tables from the store's own answers. *)
      let load_table =
        Hashtbl.fold (fun key () acc -> (key, Fstore.load store key) :: acc) keys []
        |> List.sort compare
      in
      let agg_table =
        List.concat_map
          (fun (m : Monitor.t) ->
            Array.to_list m.Monitor.rule.Gr_compiler.Ir.insts
            |> List.filter_map (function
                 | Gr_compiler.Ir.Agg { fn; slot; window_ns; param; _ } ->
                   let key = m.Monitor.slots.(slot) in
                   Some
                     ( key,
                       fn,
                       window_ns,
                       param,
                       Fstore.aggregate store ~key ~fn ~window_ns ~param )
                 | _ -> None))
          monitors
      in
      let harness_c =
        let buf = Buffer.create 2048 in
        Buffer.add_string buf
          "#include <stdio.h>\n#include <string.h>\nstruct gr_store_impl { int dummy; };\n";
        Buffer.add_string buf "double gr_load(struct gr_store *s, const char *key) {\n  (void)s;\n";
        List.iter
          (fun (k, v) ->
            Buffer.add_string buf (Printf.sprintf "  if (!strcmp(key, %S)) return %.17g;\n" k v))
          load_table;
        Buffer.add_string buf "  return 0.0;\n}\n";
        Buffer.add_string buf
          "double gr_agg(struct gr_store *s, const char *key, enum gr_agg_fn fn, uint64_t w, \
           double p) {\n\
          \  (void)s;\n";
        List.iter
          (fun (k, fn, w, p, v) ->
            Buffer.add_string buf
              (Printf.sprintf
                 "  if (!strcmp(key, %S) && fn == %s && w == %.0fULL && p == %s) return %.17g;\n"
                 k (agg_enum_name fn) w (c_float p) v))
          agg_table;
        Buffer.add_string buf "  return 0.0;\n}\n";
        Buffer.add_string buf
          {|void gr_save(struct gr_store *s, const char *key, double v) { (void)s; (void)key; (void)v; }
void gr_report(struct gr_ctx *c, const char *m, const char *msg, const char *const *k, int n) { (void)c; (void)m; (void)msg; (void)k; (void)n; }
void gr_replace(struct gr_ctx *c, const char *p) { (void)c; (void)p; }
void gr_restore(struct gr_ctx *c, const char *p) { (void)c; (void)p; }
void gr_retrain(struct gr_ctx *c, const char *p) { (void)c; (void)p; }
void gr_deprioritize(struct gr_ctx *c, const char *cls, int w) { (void)c; (void)cls; (void)w; }
void gr_kill(struct gr_ctx *c, const char *cls) { (void)c; (void)cls; }
void gr_timer(struct gr_ctx *c, uint64_t a, uint64_t b, uint64_t d, gr_check_fn f) { (void)c; (void)a; (void)b; (void)d; (void)f; }
void gr_on_function(struct gr_ctx *c, const char *h, gr_check_fn f) { (void)c; (void)h; (void)f; }
void gr_on_change(struct gr_ctx *c, const char *k, gr_check_fn f) { (void)c; (void)k; (void)f; }
int main(void) {
  struct gr_store *store = 0;
|};
        List.iter
          (fun (m : Monitor.t) ->
            Buffer.add_string buf
              (Printf.sprintf "  printf(\"%%.17g\\n\", gr_rule_%s(store));\n"
                 (Cgen.c_identifier m.Monitor.name)))
          monitors;
        Buffer.add_string buf "  return 0;\n}\n";
        Buffer.contents buf
      in
      let c_results =
        in_temp_dir (fun dir ->
            write_file (Filename.concat dir "guardrail_rt.h") Cgen.runtime_header;
            write_file (Filename.concat dir "monitors.c") (Cgen.spec monitors ^ harness_c);
            let exe = Filename.concat dir "monitors" in
            let compile =
              Printf.sprintf "gcc -Wall -Wno-unused-function -o %s %s -I %s 2> %s"
                (Filename.quote exe)
                (Filename.quote (Filename.concat dir "monitors.c"))
                (Filename.quote dir)
                (Filename.quote (Filename.concat dir "gcc.log"))
            in
            if Sys.command compile <> 0 then
              Alcotest.failf "corpus harness does not compile:\n%s"
                (read_file (Filename.concat dir "gcc.log"));
            let ic = Unix.open_process_in exe in
            let lines = ref [] in
            (try
               while true do
                 lines := input_line ic :: !lines
               done
             with End_of_file -> ());
            ignore (Unix.close_process_in ic : Unix.process_status);
            List.rev_map float_of_string !lines)
      in
      Alcotest.(check int) "one verdict per monitor" (List.length monitors)
        (List.length c_results);
      let same a b =
        Int64.bits_of_float a = Int64.bits_of_float b || (Float.is_nan a && Float.is_nan b)
      in
      List.iter2
        (fun (m : Monitor.t) c ->
          let slots = m.Monitor.slots and p = m.Monitor.rule in
          let tree = (Vm.run ~store ~slots p).Vm.value in
          let jit = (Jit.run (Jit.compile ~store ~slots p)).Vm.value in
          if not (same tree jit) then
            Alcotest.failf "%s: jit diverged from tree (%h vs %h)" m.Monitor.name jit tree;
          if not (same tree c) then
            Alcotest.failf "%s: C diverged from the VM tiers (%h vs %h)" m.Monitor.name c tree)
        monitors c_results

let suite =
  [
    ( "compiler.cgen",
      [
        Alcotest.test_case "identifier mangling" `Quick test_c_identifier;
        Alcotest.test_case "emitted structure" `Quick test_structure;
        Alcotest.test_case "gcc -Wall -Werror" `Slow test_compiles_with_gcc;
        Alcotest.test_case "differential C vs VM" `Slow test_differential_vs_vm;
        Alcotest.test_case "specs corpus: C vs tree/jit, bit-exact" `Slow
          test_corpus_c_vs_tiers;
      ] );
  ]
