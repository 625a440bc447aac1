(* The one JSON module: a hand-rolled subset (objects, arrays, strings
   with escapes, integers, floats, booleans, null) with its parser,
   printer, emission helpers and typed field readers. No JSON dependency
   ships in this tree, and the subset keeps the malformed-input surface
   small enough to test exhaustively.

   The cursor lexer is exposed because the request decoder
   (Gp_service.Wire) scans known request shapes straight from the line
   with it, without materializing a tree; what it cannot decode in place
   it hands to [value], so both paths share every syntax error. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Error m)) fmt

(* ------------------------------------------------------------------ *)
(* Cursor lexer                                                        *)
(* ------------------------------------------------------------------ *)

type cursor = { mutable src : string; mutable pos : int }

(* [has]/[cur] instead of an option-returning peek: the cursor helpers
   sit under every character of every request, and a [Some ch] per call
   is two words of garbage each. *)
let has c = c.pos < String.length c.src

let cur c = String.unsafe_get c.src c.pos

let advance c = c.pos <- c.pos + 1

let rec skip_ws c =
  if has c then
    match cur c with
    | ' ' | '\t' | '\r' | '\n' ->
      advance c;
      skip_ws c
    | _ -> ()

let expect c ch =
  if has c then begin
    let x = cur c in
    if x = ch then advance c
    else fail "at %d: expected %c, found %c" c.pos ch x
  end
  else fail "at %d: expected %c, found end of input" c.pos ch

(* One scratch buffer serves every string in a parse: string parsing never
   nests (the contents are taken before the next token is touched), so the
   buffer is always drained before it is reused. *)
let strbuf = Buffer.create 256

(* The loop is a top-level [let rec] on purpose: a local recursive
   function with free variables is a fresh closure allocation per call,
   which matters on a path that runs for every escaped string. *)
let rec escaped_chars_into buf c =
  if not (has c) then fail "at %d: unterminated string" c.pos
  else
    match cur c with
    | '"' -> advance c
    | '\\' ->
      advance c;
      if not (has c) then fail "at %d: unterminated escape" c.pos;
      let ch = cur c in
      advance c;
      (match ch with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'n' -> Buffer.add_char buf '\n'
        | 't' -> Buffer.add_char buf '\t'
        | 'r' -> Buffer.add_char buf '\r'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'u' ->
          (* \uXXXX: decode the BMP code point to UTF-8 *)
          if c.pos + 4 > String.length c.src then
            fail "at %d: truncated \\u escape" c.pos;
          let hex = String.sub c.src c.pos 4 in
          let cp =
            try int_of_string ("0x" ^ hex)
            with _ -> fail "bad \\u escape %s" hex
          in
          c.pos <- c.pos + 4;
          if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
          else if cp < 0x800 then begin
            Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
            Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
          end
          else begin
            Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
            Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
            Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
          end
      | _ -> fail "bad escape \\%c" ch);
      escaped_chars_into buf c
    | ch ->
      advance c;
      Buffer.add_char buf ch;
      escaped_chars_into buf c

(* Escape-free strings — every string the server emits and virtually every
   one it receives — are a single [String.sub] of the line; only strings
   with escapes fall back to the scratch buffer. *)
let string_body c =
  let src = c.src in
  let n = String.length src in
  let i = ref c.pos in
  while
    !i < n
    &&
    let ch = String.unsafe_get src !i in
    ch <> '"' && ch <> '\\'
  do
    incr i
  done;
  if !i < n && String.unsafe_get src !i = '"' then begin
    let s = String.sub src c.pos (!i - c.pos) in
    c.pos <- !i + 1;
    s
  end
  else begin
    Buffer.clear strbuf;
    Buffer.add_substring strbuf src c.pos (!i - c.pos);
    c.pos <- !i;
    escaped_chars_into strbuf c;
    Buffer.contents strbuf
  end

let is_num_char = function
  | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
  | _ -> false

let number c =
  let start = c.pos in
  while has c && is_num_char (cur c) do
    advance c
  done;
  let s = String.sub c.src start (c.pos - start) in
  match int_of_string_opt s with
  | Some i -> Int i
  | None -> (
    match float_of_string_opt s with
    | Some f -> Float f
    | None -> fail "bad number %S" s)

(* Compare a region of [src] against [name] in place — no substring.
   Shared by literal matching and the request decoder's key dispatch. *)
let rec region_eq_from src pos name len i =
  i = len
  || String.unsafe_get src (pos + i) = String.unsafe_get name i
     && region_eq_from src pos name len (i + 1)

let region_equals src pos len name =
  String.length name = len && region_eq_from src pos name len 0

let literal c word =
  let n = String.length word in
  if c.pos + n <= String.length c.src && region_eq_from c.src c.pos word n 0
  then c.pos <- c.pos + n
  else fail "at %d: bad literal" c.pos

let rec value c =
  skip_ws c;
  if not (has c) then fail "at %d: unexpected end of input" c.pos
  else
    match cur c with
    | '"' ->
      advance c;
      Str (string_body c)
    | '{' ->
      advance c;
      obj c []
    | '[' ->
      advance c;
      arr c []
    | 't' -> literal c "true"; Bool true
    | 'f' -> literal c "false"; Bool false
    | 'n' -> literal c "null"; Null
    | '-' | '0' .. '9' -> number c
    | ch -> fail "at %d: unexpected %c" c.pos ch

and obj c acc =
  skip_ws c;
  if has c && cur c = '}' then begin
    advance c;
    Obj (List.rev acc)
  end
  else begin
    let kpos = c.pos in
    expect c '"';
    let key = string_body c in
    if List.mem_assoc key acc then
      fail "at %d: duplicate key %S in object" kpos key;
    skip_ws c;
    expect c ':';
    let v = value c in
    skip_ws c;
    if has c && cur c = ',' then begin
      advance c;
      obj c ((key, v) :: acc)
    end
    else if has c && cur c = '}' then begin
      advance c;
      Obj (List.rev ((key, v) :: acc))
    end
    else fail "at %d: expected , or } in object" c.pos
  end

and arr c acc =
  skip_ws c;
  if has c && cur c = ']' then begin
    advance c;
    Arr (List.rev acc)
  end
  else begin
    let v = value c in
    skip_ws c;
    if has c && cur c = ',' then begin
      advance c;
      arr c (v :: acc)
    end
    else if has c && cur c = ']' then begin
      advance c;
      Arr (List.rev (v :: acc))
    end
    else fail "at %d: expected , or ] in array" c.pos
  end

let end_of_input c =
  skip_ws c;
  if has c then fail "at %d: trailing %c after value" c.pos (cur c)

let parse s =
  let c = { src = s; pos = 0 } in
  let v = value c in
  end_of_input c;
  v

(* ------------------------------------------------------------------ *)
(* Emission                                                            *)
(* ------------------------------------------------------------------ *)

let hex_digits = "0123456789abcdef"

(* An indexed [for] loop rather than [String.iter f]: the closure passed
   to [iter] captures [buf] and is a fresh allocation per call on the
   steady-state render path. *)
let escape_into buf s =
  for i = 0 to String.length s - 1 do
    match String.unsafe_get s i with
    | '"' -> Buffer.add_string buf "\\\""
    | '\\' -> Buffer.add_string buf "\\\\"
    | '\n' -> Buffer.add_string buf "\\n"
    | '\t' -> Buffer.add_string buf "\\t"
    | '\r' -> Buffer.add_string buf "\\r"
    | c when Char.code c < 0x20 ->
      (* "\u00xx" — written without sprintf to stay allocation-free *)
      Buffer.add_string buf "\\u00";
      Buffer.add_char buf hex_digits.[Char.code c lsr 4];
      Buffer.add_char buf hex_digits.[Char.code c land 0xF]
    | c -> Buffer.add_char buf c
  done

let str s =
  let buf = Buffer.create (String.length s + 8) in
  Buffer.add_char buf '"';
  escape_into buf s;
  Buffer.add_char buf '"';
  Buffer.contents buf

(* Decimal int rendering without the [string_of_int] intermediate. The
   digits are emitted from a negative accumulator so [min_int] works;
   the digit loop is top-level so no closure is allocated per int. *)
let rec add_digits buf n =
  if n <> 0 then begin
    add_digits buf (n / 10);
    Buffer.add_char buf (Char.unsafe_chr (48 + abs (n mod 10)))
  end

let add_int buf i =
  if i = 0 then Buffer.add_char buf '0'
  else begin
    if i < 0 then Buffer.add_char buf '-';
    add_digits buf (if i > 0 then -i else i)
  end

(* JSON has no inf/nan literals; map them to null. A value whose six
   significant digits are integral is written as that integer, so what
   [num_field] reads back is written the same way again. *)
let num v =
  let integral v = Float.is_integer v && Float.abs v < 1e15 in
  if not (Float.is_finite v) then "null"
  else if v = 0.0 then "0"
  else if integral v then Printf.sprintf "%.0f" v
  else
    let s = Printf.sprintf "%.6g" v in
    let r = float_of_string s in
    if integral r then Printf.sprintf "%.0f" r else s

let rec print_into buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Int i -> add_int buf i
  | Float f -> Buffer.add_string buf (Printf.sprintf "%g" f)
  | Str s ->
    Buffer.add_char buf '"';
    escape_into buf s;
    Buffer.add_char buf '"'
  | Arr vs ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char buf ',';
        print_into buf v)
      vs;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_char buf '"';
        escape_into buf k;
        Buffer.add_string buf "\":";
        print_into buf v)
      fields;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 64 in
  print_into buf v;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Typed field readers                                                 *)
(* ------------------------------------------------------------------ *)

let field name = function
  | Obj kvs -> List.assoc_opt name kvs
  | _ -> None

let read what decode name o =
  match Option.bind (field name o) decode with
  | Some v -> v
  | None -> fail "field %S: expected %s" name what

let str_field = read "a string" (function Str s -> Some s | _ -> None)
let int_field = read "an integer" (function Int i -> Some i | _ -> None)
let bool_field = read "a boolean" (function Bool b -> Some b | _ -> None)
let list_field = read "an array" (function Arr vs -> Some vs | _ -> None)
let obj_field = read "an object" (function Obj kvs -> Some kvs | _ -> None)

(* [num] renders integral floats without a decimal point and non-finite
   ones as null, so a number written by [num] comes back as any of the
   three. *)
let num_field =
  read "a number" (function
    | Int i -> Some (float_of_int i)
    | Float f -> Some f
    | Null -> Some Float.nan
    | _ -> None)

let opt_field read name o =
  match field name o with None -> None | Some _ -> Some (read name o)
