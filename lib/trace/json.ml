type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* ---------- printing ---------- *)

let buf_add_escaped buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let buf_add_num buf x =
  if not (Float.is_finite x) then Buffer.add_string buf "null"
  else if Float.is_integer x && Float.abs x < 1e15 then
    Buffer.add_string buf (Printf.sprintf "%.0f" x)
  else Buffer.add_string buf (Printf.sprintf "%.17g" x)

let rec buf_add buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num x -> buf_add_num buf x
  | Str s -> buf_add_escaped buf s
  | Arr xs ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf ',';
        buf_add buf x)
      xs;
    Buffer.add_char buf ']'
  | Obj kvs ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        buf_add_escaped buf k;
        Buffer.add_char buf ':';
        buf_add buf v)
      kvs;
    Buffer.add_char buf '}'

let to_string j =
  let buf = Buffer.create 256 in
  buf_add buf j;
  Buffer.contents buf

let pp fmt j = Format.pp_print_string fmt (to_string j)

(* ---------- parsing ---------- *)

exception Parse_error of string

let parse_failf fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

type cursor = { src : string; mutable pos : int }

let peek c = if c.pos < String.length c.src then Some c.src.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let skip_ws c =
  let continue = ref true in
  while !continue do
    match peek c with
    | Some (' ' | '\t' | '\n' | '\r') -> advance c
    | _ -> continue := false
  done

let expect c ch =
  match peek c with
  | Some x when x = ch -> advance c
  | Some x -> parse_failf "at %d: expected %C, got %C" c.pos ch x
  | None -> parse_failf "at %d: expected %C, got end of input" c.pos ch

let literal c word value =
  let n = String.length word in
  if c.pos + n <= String.length c.src && String.sub c.src c.pos n = word then begin
    c.pos <- c.pos + n;
    value
  end
  else parse_failf "at %d: expected %s" c.pos word

(* Encode a Unicode scalar value as UTF-8 bytes. *)
let buf_add_utf8 buf u =
  if u < 0x80 then Buffer.add_char buf (Char.chr u)
  else if u < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xc0 lor (u lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3f)))
  end
  else if u < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xe0 lor (u lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3f)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3f)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xf0 lor (u lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 12) land 0x3f)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3f)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3f)))
  end

let hex4 c =
  let v = ref 0 in
  for _ = 1 to 4 do
    (match peek c with
    | Some ch when ch >= '0' && ch <= '9' -> v := (!v * 16) + (Char.code ch - Char.code '0')
    | Some ch when ch >= 'a' && ch <= 'f' ->
      v := (!v * 16) + (Char.code ch - Char.code 'a' + 10)
    | Some ch when ch >= 'A' && ch <= 'F' ->
      v := (!v * 16) + (Char.code ch - Char.code 'A' + 10)
    | _ -> parse_failf "at %d: bad \\u escape" c.pos);
    advance c
  done;
  !v

let parse_string c =
  expect c '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek c with
    | None -> parse_failf "at %d: unterminated string" c.pos
    | Some '"' -> advance c
    | Some '\\' ->
      advance c;
      (match peek c with
      | Some '"' -> Buffer.add_char buf '"'; advance c
      | Some '\\' -> Buffer.add_char buf '\\'; advance c
      | Some '/' -> Buffer.add_char buf '/'; advance c
      | Some 'n' -> Buffer.add_char buf '\n'; advance c
      | Some 'r' -> Buffer.add_char buf '\r'; advance c
      | Some 't' -> Buffer.add_char buf '\t'; advance c
      | Some 'b' -> Buffer.add_char buf '\b'; advance c
      | Some 'f' -> Buffer.add_char buf '\012'; advance c
      | Some 'u' ->
        advance c;
        let u = hex4 c in
        (* Surrogate pair: \uD8xx\uDCxx. *)
        if u >= 0xd800 && u <= 0xdbff then begin
          expect c '\\';
          expect c 'u';
          let lo = hex4 c in
          if lo < 0xdc00 || lo > 0xdfff then parse_failf "at %d: bad surrogate pair" c.pos;
          buf_add_utf8 buf (0x10000 + ((u - 0xd800) lsl 10) + (lo - 0xdc00))
        end
        else buf_add_utf8 buf u
      | _ -> parse_failf "at %d: bad escape" c.pos);
      go ()
    | Some ch -> Buffer.add_char buf ch; advance c; go ()
  in
  go ();
  Buffer.contents buf

let parse_number c =
  let start = c.pos in
  let numeric ch =
    (ch >= '0' && ch <= '9')
    || ch = '-' || ch = '+' || ch = '.' || ch = 'e' || ch = 'E'
  in
  let continue = ref true in
  while !continue do
    match peek c with Some ch when numeric ch -> advance c | _ -> continue := false
  done;
  let s = String.sub c.src start (c.pos - start) in
  match float_of_string_opt s with
  | Some x -> x
  | None -> parse_failf "at %d: bad number %S" start s

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> parse_failf "at %d: unexpected end of input" c.pos
  | Some '{' ->
    advance c;
    skip_ws c;
    if peek c = Some '}' then begin
      advance c;
      Obj []
    end
    else begin
      let rec fields acc =
        skip_ws c;
        let k = parse_string c in
        skip_ws c;
        expect c ':';
        let v = parse_value c in
        skip_ws c;
        match peek c with
        | Some ',' -> advance c; fields ((k, v) :: acc)
        | Some '}' -> advance c; List.rev ((k, v) :: acc)
        | _ -> parse_failf "at %d: expected ',' or '}'" c.pos
      in
      Obj (fields [])
    end
  | Some '[' ->
    advance c;
    skip_ws c;
    if peek c = Some ']' then begin
      advance c;
      Arr []
    end
    else begin
      let rec elems acc =
        let v = parse_value c in
        skip_ws c;
        match peek c with
        | Some ',' -> advance c; elems (v :: acc)
        | Some ']' -> advance c; List.rev (v :: acc)
        | _ -> parse_failf "at %d: expected ',' or ']'" c.pos
      in
      Arr (elems [])
    end
  | Some '"' -> Str (parse_string c)
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some 'n' -> literal c "null" Null
  | Some _ -> Num (parse_number c)

let parse s =
  let c = { src = s; pos = 0 } in
  match parse_value c with
  | v ->
    skip_ws c;
    if c.pos <> String.length s then
      Error (Printf.sprintf "at %d: trailing garbage" c.pos)
    else Ok v
  | exception Parse_error msg -> Error msg

let parse_exn s =
  match parse s with Ok v -> v | Error msg -> invalid_arg ("Json.parse: " ^ msg)

(* ---------- accessors ---------- *)

let member key = function Obj kvs -> List.assoc_opt key kvs | _ -> None
let to_list = function Arr xs -> xs | _ -> []
let float_value = function Num x -> Some x | _ -> None

let int_value = function
  | Num x when Float.is_integer x -> Some (int_of_float x)
  | _ -> None

let string_value = function Str s -> Some s | _ -> None

let rec equal a b =
  match (a, b) with
  | Null, Null -> true
  | Bool x, Bool y -> x = y
  | Num x, Num y -> x = y
  | Str x, Str y -> String.equal x y
  | Arr xs, Arr ys -> List.equal equal xs ys
  | Obj xs, Obj ys ->
    List.equal (fun (k1, v1) (k2, v2) -> String.equal k1 k2 && equal v1 v2) xs ys
  | _ -> false
