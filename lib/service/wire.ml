(* The wire format: one JSON object per line, hand-rolled against a small
   JSON subset (objects, arrays, strings with escapes, integers, floats,
   booleans, null). No JSON dependency ships in this tree, and the subset
   keeps the malformed-input surface small enough to test exhaustively.

   Requests:
     {"id":1,"kind":"check","concept":"Container","types":["varray<int>"]}
     {"kind":"lint","source":"vector<int> v;\n..."}
     {"kind":"optimize","expr":"x*1+0","certified_only":true}
     {"kind":"prove","theory":"group","instance":"int[+]"}
     {"kind":"closure","concept":"IncidenceGraph","types":["adjacency_list"]}
     {"kind":"parse","source":"concept Foo<T> { }"}

   Responses mirror the typed IR: id, kind, ok/error, payload fields,
   cached flag and step count. *)

type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Error m)) fmt

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

type cursor = { mutable src : string; mutable pos : int }

(* [has]/[cur] instead of an option-returning peek: the cursor helpers
   sit under every character of every request, and a [Some ch] per call
   is two words of garbage each — the single largest allocation on the
   pre-refactor parse path. *)
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

let parse_string_body_into buf c =
  escaped_chars_into buf c;
  Buffer.contents buf

(* Escape-free strings — every string the server emits and virtually every
   one it receives — are a single [String.sub] of the line; only strings
   with escapes fall back to the scratch buffer. *)
let parse_string_body c =
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
    parse_string_body_into strbuf c
  end

let is_num_char = function
  | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
  | _ -> false

let parse_number c =
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
   Shared by literal matching and the direct parser's key dispatch. *)
let rec region_eq_from src pos name len i =
  i = len
  || String.unsafe_get src (pos + i) = String.unsafe_get name i
     && region_eq_from src pos name len (i + 1)

let region_equals src pos len name =
  String.length name = len && region_eq_from src pos name len 0

let parse_literal c word value =
  let n = String.length word in
  if
    c.pos + n <= String.length c.src
    && region_eq_from c.src c.pos word n 0
  then begin
    c.pos <- c.pos + n;
    value
  end
  else fail "at %d: bad literal" c.pos

let rec parse_value c =
  skip_ws c;
  if not (has c) then fail "at %d: unexpected end of input" c.pos
  else
    match cur c with
    | '"' ->
      advance c;
      Str (parse_string_body c)
    | '{' ->
      advance c;
      parse_obj c []
    | '[' ->
      advance c;
      parse_arr c []
    | 't' -> parse_literal c "true" (Bool true)
    | 'f' -> parse_literal c "false" (Bool false)
    | 'n' -> parse_literal c "null" Null
    | '-' | '0' .. '9' -> parse_number c
    | ch -> fail "at %d: unexpected %c" c.pos ch

and parse_obj c acc =
  skip_ws c;
  if has c && cur c = '}' then begin
    advance c;
    Obj (List.rev acc)
  end
  else begin
    skip_ws c;
    let kpos = c.pos in
    expect c '"';
    let key = parse_string_body c in
    if List.mem_assoc key acc then
      fail "at %d: duplicate key %S in object" kpos key;
    skip_ws c;
    expect c ':';
    let v = parse_value c in
    skip_ws c;
    if has c && cur c = ',' then begin
      advance c;
      parse_obj c ((key, v) :: acc)
    end
    else if has c && cur c = '}' then begin
      advance c;
      Obj (List.rev ((key, v) :: acc))
    end
    else fail "at %d: expected , or } in object" c.pos
  end

and parse_arr c acc =
  skip_ws c;
  if has c && cur c = ']' then begin
    advance c;
    Arr (List.rev acc)
  end
  else begin
    let v = parse_value c in
    skip_ws c;
    if has c && cur c = ',' then begin
      advance c;
      parse_arr c (v :: acc)
    end
    else if has c && cur c = ']' then begin
      advance c;
      Arr (List.rev (v :: acc))
    end
    else fail "at %d: expected , or ] in array" c.pos
  end

let parse s =
  let c = { src = s; pos = 0 } in
  let v = parse_value c in
  skip_ws c;
  if has c then fail "at %d: trailing %c after value" c.pos (cur c);
  v

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
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

let rec print_into buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Int i -> Buffer.add_string buf (string_of_int i)
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
(* Requests                                                            *)
(* ------------------------------------------------------------------ *)

let field fields name = List.assoc_opt name fields

let str_field fields name =
  match field fields name with
  | Some (Str s) -> Ok s
  | Some _ -> Result.error (Printf.sprintf "field %S must be a string" name)
  | None -> Result.error (Printf.sprintf "missing field %S" name)

let opt_str_field fields name =
  match field fields name with
  | Some (Str s) -> Ok (Some s)
  | None | Some Null -> Ok None
  | Some _ -> Result.error (Printf.sprintf "field %S must be a string" name)

let bool_field ~default fields name =
  match field fields name with
  | Some (Bool b) -> Ok b
  | None -> Ok default
  | Some _ -> Result.error (Printf.sprintf "field %S must be a boolean" name)

let int_field ?default fields name =
  match (field fields name, default) with
  | Some (Int i), _ -> Ok i
  | None, Some d -> Ok d
  | None, None -> Result.error (Printf.sprintf "missing field %S" name)
  | Some _, _ -> Result.error (Printf.sprintf "field %S must be an integer" name)

let str_list_field fields name =
  match field fields name with
  | Some (Arr vs) ->
    List.fold_left
      (fun acc v ->
        match (acc, v) with
        | Ok xs, Str s -> Ok (xs @ [ s ])
        | Ok _, _ ->
          Result.error
            (Printf.sprintf "field %S must be an array of strings" name)
        | (Error _ as e), _ -> e)
      (Ok []) vs
  | Some _ ->
    Result.error (Printf.sprintf "field %S must be an array of strings" name)
  | None -> Result.error (Printf.sprintf "missing field %S" name)

let ( let* ) = Result.bind

let request_of_fields fields =
  let* kind = str_field fields "kind" in
  match Request.kind_of_name kind with
  | None -> Result.error (Printf.sprintf "unknown request kind %S" kind)
  | Some Request.Kcheck ->
    let* concept = str_field fields "concept" in
    let* types = str_list_field fields "types" in
    let* nominal = bool_field ~default:false fields "nominal" in
    let* defs = opt_str_field fields "defs" in
    Ok (Request.Check { concept; types; nominal; defs })
  | Some Request.Kparse ->
    let* source = str_field fields "source" in
    Ok (Request.Parse { source })
  | Some Request.Klint ->
    let* source = str_field fields "source" in
    Ok (Request.Lint { source })
  | Some Request.Koptimize ->
    let* expr = str_field fields "expr" in
    let* certified_only = bool_field ~default:false fields "certified_only" in
    Ok (Request.Optimize { expr; certified_only })
  | Some Request.Kprove ->
    let* theory = str_field fields "theory" in
    let* instance = opt_str_field fields "instance" in
    Ok (Request.Prove { theory; instance })
  | Some Request.Kclosure ->
    let* concept = str_field fields "concept" in
    let* types = str_list_field fields "types" in
    Ok (Request.Closure { concept; types })
  | Some (Request.Kmatvec | Request.Kmatmul | Request.Ksolve) ->
    let* structure = str_field fields "structure" in
    let* n = int_field fields "n" in
    let* seed = int_field ~default:0 fields "seed" in
    Ok
      (match Request.kind_of_name kind with
      | Some Request.Kmatvec -> Request.Matvec { structure; n; seed }
      | Some Request.Kmatmul -> Request.Matmul { structure; n; seed }
      | _ -> Request.Solve { structure; n; seed })

(* The AST decode path: parse the full [json] tree, then validate fields.
   Retained as the qcheck oracle for the direct parser below, and as the
   cold path for non-object lines (identical error messages for free). *)
let request_of_line_ast line =
  match parse line with
  | exception Error m -> Result.error ("bad request line: " ^ m)
  | Obj fields -> (
    let id =
      match field fields "id" with Some (Int i) -> Some i | _ -> None
    in
    match request_of_fields fields with
    | Ok req -> Ok (id, req)
    | Error m -> Result.error ("bad request: " ^ m))
  | _ -> Result.error "bad request line: expected a JSON object"

(* ------------------------------------------------------------------ *)
(* Direct request parsing: cursor -> typed IR, no AST                  *)
(* ------------------------------------------------------------------ *)

(* The hot decode path parses known request shapes straight from the
   cursor into [Request.t], touching one reused slot record instead of
   materializing a [json] tree. Steady-state allocation is limited to the
   strings the request must own (field payloads) and the final record.

   Behavioural parity with the AST path is a hard requirement — same
   accepted lines, same [Error] messages (the qcheck round-trip and the
   malformed-line corpus compare both). Wrong-typed values in fields a
   kind does not consume are therefore tolerated exactly like the AST
   path tolerates them: the value is parsed generically and the type
   error is only raised if the kind actually reads that field. *)

(* known field indices; bit i of the masks below tracks field i *)
let f_id = 0

let f_kind = 1

let f_concept = 2

let f_types = 3

let f_nominal = 4

let f_defs = 5

let f_source = 6

let f_expr = 7

let f_certified_only = 8

let f_theory = 9

let f_instance = 10

let f_structure = 11

let f_n = 12

let f_seed = 13

let known_fields =
  [| "id"; "kind"; "concept"; "types"; "nominal"; "defs"; "source"; "expr";
     "certified_only"; "theory"; "instance"; "structure"; "n"; "seed" |]

type slots = {
  mutable s_keys : int; (* fields whose key appeared (duplicate detection) *)
  mutable s_seen : int; (* fields whose value parsed at the expected type *)
  mutable s_bad : int; (* fields whose value had the wrong type *)
  mutable s_unknown : string list; (* unknown keys seen (duplicate detection) *)
  mutable s_id : int;
  mutable s_has_id : bool;
  mutable s_kind : string;
  mutable s_concept : string;
  mutable s_types : string list;
  mutable s_nominal : bool;
  mutable s_defs : string option;
  mutable s_source : string;
  mutable s_expr : string;
  mutable s_certified_only : bool;
  mutable s_theory : string;
  mutable s_instance : string option;
  mutable s_structure : string;
  mutable s_n : int;
  mutable s_seed : int;
}

let slots =
  { s_keys = 0; s_seen = 0; s_bad = 0; s_unknown = []; s_id = 0;
    s_has_id = false; s_kind = ""; s_concept = ""; s_types = [];
    s_nominal = false; s_defs = None; s_source = ""; s_expr = "";
    s_certified_only = false; s_theory = ""; s_instance = None;
    s_structure = ""; s_n = 0; s_seed = 0 }

let reset_slots () =
  slots.s_keys <- 0;
  slots.s_seen <- 0;
  slots.s_bad <- 0;
  slots.s_unknown <- [];
  slots.s_has_id <- false;
  slots.s_kind <- "";
  slots.s_concept <- "";
  slots.s_types <- [];
  slots.s_nominal <- false;
  slots.s_defs <- None;
  slots.s_source <- "";
  slots.s_expr <- "";
  slots.s_certified_only <- false;
  slots.s_theory <- "";
  slots.s_instance <- None;
  slots.s_structure <- ""

let seen i = slots.s_seen land (1 lsl i) <> 0

let mark_seen i = slots.s_seen <- slots.s_seen lor (1 lsl i)

let bad i = slots.s_bad land (1 lsl i) <> 0

let mark_bad i = slots.s_bad <- slots.s_bad lor (1 lsl i)

(* reused cursor for the direct path: zero per-line setup allocation *)
let dcur = { src = ""; pos = 0 }

(* Match the key in place against the known field names ([region_equals]
   from the literal matcher above); top-level recursion, so the scan is
   allocation-free. *)
let rec find_field_from src pos len i =
  if i = Array.length known_fields then -1
  else if region_equals src pos len known_fields.(i) then i
  else find_field_from src pos len (i + 1)

let find_field src pos len = find_field_from src pos len 0

(* Parse an int value if the token is a plain integer; anything else —
   including floats and overflowing digit runs — falls back to
   [parse_number] so malformed numbers keep their AST error messages.
   Returns [None] when the value was valid JSON but not an [Int]. *)
let parse_int_value c =
  let src = c.src in
  let len = String.length src in
  let start = c.pos in
  let neg = start < len && String.unsafe_get src start = '-' in
  let d0 = if neg then start + 1 else start in
  let i = ref d0 in
  while
    !i < len
    &&
    let ch = String.unsafe_get src !i in
    ch >= '0' && ch <= '9'
  do
    incr i
  done;
  let ndig = !i - d0 in
  let clean =
    ndig >= 1 && ndig <= 18
    && (!i >= len
       ||
       match String.unsafe_get src !i with
       | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> false
       | _ -> true)
  in
  if clean then begin
    let v = ref 0 in
    for j = d0 to !i - 1 do
      v := (!v * 10) + (Char.code (String.unsafe_get src j) - 48)
    done;
    c.pos <- !i;
    Some (if neg then - !v else !v)
  end
  else
    match parse_number c with Int v -> Some v | _ -> None

(* Generic skip for values we do not decode (unknown keys, wrong-typed
   values): reuse the AST parser so malformed content fails with exactly
   the AST messages. Allocates, but only off the happy path. *)
let skip_value c = ignore (parse_value c)

let parse_direct_string c idx set =
  skip_ws c;
  if has c && cur c = '"' then begin
    advance c;
    set (parse_string_body c);
    mark_seen idx
  end
  else begin
    mark_bad idx;
    skip_value c
  end

let parse_direct_opt_string c idx set =
  skip_ws c;
  if has c && cur c = '"' then begin
    advance c;
    set (Some (parse_string_body c));
    mark_seen idx
  end
  else if has c && cur c = 'n' then begin
    ignore (parse_literal c "null" Null);
    set None;
    mark_seen idx
  end
  else begin
    mark_bad idx;
    skip_value c
  end

let parse_direct_bool c idx set =
  skip_ws c;
  if has c && cur c = 't' then begin
    ignore (parse_literal c "true" (Bool true));
    set true;
    mark_seen idx
  end
  else if has c && cur c = 'f' then begin
    ignore (parse_literal c "false" (Bool false));
    set false;
    mark_seen idx
  end
  else begin
    mark_bad idx;
    skip_value c
  end

let is_int_start ch = ch = '-' || (ch >= '0' && ch <= '9')

let parse_direct_int c idx set =
  skip_ws c;
  if has c && is_int_start (cur c) then begin
    match parse_int_value c with
    | Some v ->
      set v;
      mark_seen idx
    | None -> mark_bad idx
  end
  else begin
    mark_bad idx;
    skip_value c
  end

(* "id" mirrors the AST path: a non-integer id is silently ignored. *)
let parse_direct_id c =
  skip_ws c;
  if has c && is_int_start (cur c) then begin
    match parse_int_value c with
    | Some v ->
      slots.s_id <- v;
      slots.s_has_id <- true
    | None -> ()
  end
  else skip_value c

let rec str_list_elems c ok acc =
  skip_ws c;
  if has c && cur c = ']' then advance c
  else begin
    (skip_ws c;
     if !ok && has c && cur c = '"' then begin
       advance c;
       acc := parse_string_body c :: !acc
     end
     else begin
       ok := false;
       skip_value c
     end);
    skip_ws c;
    if has c && cur c = ',' then begin
      advance c;
      str_list_elems c ok acc
    end
    else if has c && cur c = ']' then advance c
    else fail "at %d: expected , or ] in array" c.pos
  end

let parse_direct_str_list c idx set =
  skip_ws c;
  if has c && cur c = '[' then begin
    advance c;
    let ok = ref true in
    let acc = ref [] in
    str_list_elems c ok acc;
    if !ok then begin
      set (List.rev !acc);
      mark_seen idx
    end
    else mark_bad idx
  end
  else begin
    mark_bad idx;
    skip_value c
  end

let parse_direct_value c idx =
  if idx = f_id then parse_direct_id c
  else if idx = f_kind then parse_direct_string c idx (fun s -> slots.s_kind <- s)
  else if idx = f_concept then
    parse_direct_string c idx (fun s -> slots.s_concept <- s)
  else if idx = f_types then
    parse_direct_str_list c idx (fun l -> slots.s_types <- l)
  else if idx = f_nominal then
    parse_direct_bool c idx (fun b -> slots.s_nominal <- b)
  else if idx = f_defs then
    parse_direct_opt_string c idx (fun s -> slots.s_defs <- s)
  else if idx = f_source then
    parse_direct_string c idx (fun s -> slots.s_source <- s)
  else if idx = f_expr then parse_direct_string c idx (fun s -> slots.s_expr <- s)
  else if idx = f_certified_only then
    parse_direct_bool c idx (fun b -> slots.s_certified_only <- b)
  else if idx = f_theory then
    parse_direct_string c idx (fun s -> slots.s_theory <- s)
  else if idx = f_instance then
    parse_direct_opt_string c idx (fun s -> slots.s_instance <- s)
  else if idx = f_structure then
    parse_direct_string c idx (fun s -> slots.s_structure <- s)
  else if idx = f_n then parse_direct_int c idx (fun i -> slots.s_n <- i)
  else parse_direct_int c idx (fun i -> slots.s_seed <- i)

(* One key/value pair. The key is matched against the known field names in
   place; only unknown keys and escaped keys are materialized. *)
let parse_direct_member c =
  skip_ws c;
  let kpos = c.pos in
  expect c '"';
  let src = c.src in
  let len = String.length src in
  let i = ref c.pos in
  while
    !i < len
    &&
    let ch = String.unsafe_get src !i in
    ch <> '"' && ch <> '\\'
  do
    incr i
  done;
  let idx =
    if !i < len && String.unsafe_get src !i = '"' then begin
      let idx = find_field src c.pos (!i - c.pos) in
      if idx >= 0 then begin
        c.pos <- !i + 1;
        idx
      end
      else begin
        (* unknown key: materialize for duplicate detection *)
        let key = String.sub src c.pos (!i - c.pos) in
        c.pos <- !i + 1;
        if List.mem key slots.s_unknown then
          fail "at %d: duplicate key %S in object" kpos key;
        slots.s_unknown <- key :: slots.s_unknown;
        -1
      end
    end
    else begin
      (* escaped key: cold path via the scratch buffer *)
      let key = parse_string_body c in
      let rec find j =
        if j = Array.length known_fields then -1
        else if String.equal known_fields.(j) key then j
        else find (j + 1)
      in
      let idx = find 0 in
      if idx < 0 then begin
        if List.mem key slots.s_unknown then
          fail "at %d: duplicate key %S in object" kpos key;
        slots.s_unknown <- key :: slots.s_unknown;
        -1
      end
      else idx
    end
  in
  if idx >= 0 then begin
    if slots.s_keys land (1 lsl idx) <> 0 then
      fail "at %d: duplicate key %S in object" kpos known_fields.(idx);
    slots.s_keys <- slots.s_keys lor (1 lsl idx)
  end;
  skip_ws c;
  expect c ':';
  if idx >= 0 then parse_direct_value c idx else skip_value c

let rec parse_direct_members c =
  parse_direct_member c;
  skip_ws c;
  if has c && cur c = ',' then begin
    advance c;
    parse_direct_members c
  end
  else if has c && cur c = '}' then advance c
  else fail "at %d: expected , or } in object" c.pos

let parse_direct_object c =
  (* cursor sits just past '{' *)
  skip_ws c;
  if has c && cur c = '}' then advance c else parse_direct_members c

(* Slot -> field validation, mirroring the AST field helpers' messages
   and evaluation order exactly. *)
let slot_str idx name k =
  if seen idx then k ()
  else if bad idx then
    Result.error (Printf.sprintf "field %S must be a string" name)
  else Result.error (Printf.sprintf "missing field %S" name)

let slot_opt_str idx name k =
  if seen idx || not (bad idx) then k ()
  else Result.error (Printf.sprintf "field %S must be a string" name)

let slot_bool idx name k =
  if seen idx || not (bad idx) then k ()
  else Result.error (Printf.sprintf "field %S must be a boolean" name)

let slot_int ~required idx name k =
  if seen idx then k ()
  else if bad idx then
    Result.error (Printf.sprintf "field %S must be an integer" name)
  else if required then Result.error (Printf.sprintf "missing field %S" name)
  else k ()

let slot_str_list idx name k =
  if seen idx then k ()
  else if bad idx then
    Result.error (Printf.sprintf "field %S must be an array of strings" name)
  else Result.error (Printf.sprintf "missing field %S" name)

let build_direct_request () =
  slot_str f_kind "kind" @@ fun () ->
  match Request.kind_of_name slots.s_kind with
  | None -> Result.error (Printf.sprintf "unknown request kind %S" slots.s_kind)
  | Some Request.Kcheck ->
    slot_str f_concept "concept" @@ fun () ->
    slot_str_list f_types "types" @@ fun () ->
    slot_bool f_nominal "nominal" @@ fun () ->
    slot_opt_str f_defs "defs" @@ fun () ->
    Ok
      (Request.Check
         { concept = slots.s_concept; types = slots.s_types;
           nominal = slots.s_nominal; defs = slots.s_defs })
  | Some Request.Kparse ->
    slot_str f_source "source" @@ fun () ->
    Ok (Request.Parse { source = slots.s_source })
  | Some Request.Klint ->
    slot_str f_source "source" @@ fun () ->
    Ok (Request.Lint { source = slots.s_source })
  | Some Request.Koptimize ->
    slot_str f_expr "expr" @@ fun () ->
    slot_bool f_certified_only "certified_only" @@ fun () ->
    Ok
      (Request.Optimize
         { expr = slots.s_expr; certified_only = slots.s_certified_only })
  | Some Request.Kprove ->
    slot_str f_theory "theory" @@ fun () ->
    slot_opt_str f_instance "instance" @@ fun () ->
    Ok (Request.Prove { theory = slots.s_theory; instance = slots.s_instance })
  | Some Request.Kclosure ->
    slot_str f_concept "concept" @@ fun () ->
    slot_str_list f_types "types" @@ fun () ->
    Ok (Request.Closure { concept = slots.s_concept; types = slots.s_types })
  | Some ((Request.Kmatvec | Request.Kmatmul | Request.Ksolve) as k) ->
    slot_str f_structure "structure" @@ fun () ->
    slot_int ~required:true f_n "n" @@ fun () ->
    slot_int ~required:false f_seed "seed" @@ fun () ->
    let structure = slots.s_structure in
    let n = slots.s_n in
    let seed = if seen f_seed then slots.s_seed else 0 in
    Ok
      (match k with
      | Request.Kmatvec -> Request.Matvec { structure; n; seed }
      | Request.Kmatmul -> Request.Matmul { structure; n; seed }
      | _ -> Request.Solve { structure; n; seed })

let request_of_line line =
  reset_slots ();
  let c = dcur in
  c.src <- line;
  c.pos <- 0;
  skip_ws c;
  let result =
    if has c && cur c = '{' then begin
      advance c;
      match
        parse_direct_object c;
        skip_ws c;
        if has c then fail "at %d: trailing %c after value" c.pos (cur c)
      with
      | () -> (
        match build_direct_request () with
        | Ok req ->
          Ok ((if slots.s_has_id then Some slots.s_id else None), req)
        | Error m -> Result.error ("bad request: " ^ m))
      | exception Error m -> Result.error ("bad request line: " ^ m)
    end
    else
      (* non-object line: the cold AST path owns the error wording *)
      request_of_line_ast line
  in
  c.src <- "";
  reset_slots ();
  result

let request_to_line ?id req =
  let base =
    match id with None -> [] | Some i -> [ ("id", Int i) ]
  in
  let fields =
    match req with
    | Request.Check { concept; types; nominal; defs } ->
      [ ("kind", Str "check"); ("concept", Str concept);
        ("types", Arr (List.map (fun s -> Str s) types));
        ("nominal", Bool nominal) ]
      @ (match defs with None -> [] | Some d -> [ ("defs", Str d) ])
    | Request.Parse { source } ->
      [ ("kind", Str "parse"); ("source", Str source) ]
    | Request.Lint { source } ->
      [ ("kind", Str "lint"); ("source", Str source) ]
    | Request.Optimize { expr; certified_only } ->
      [ ("kind", Str "optimize"); ("expr", Str expr);
        ("certified_only", Bool certified_only) ]
    | Request.Prove { theory; instance } ->
      [ ("kind", Str "prove"); ("theory", Str theory) ]
      @ (match instance with None -> [] | Some i -> [ ("instance", Str i) ])
    | Request.Closure { concept; types } ->
      [ ("kind", Str "closure"); ("concept", Str concept);
        ("types", Arr (List.map (fun s -> Str s) types)) ]
    | Request.Matvec { structure; n; seed } ->
      [ ("kind", Str "matvec"); ("structure", Str structure); ("n", Int n);
        ("seed", Int seed) ]
    | Request.Matmul { structure; n; seed } ->
      [ ("kind", Str "matmul"); ("structure", Str structure); ("n", Int n);
        ("seed", Int seed) ]
    | Request.Solve { structure; n; seed } ->
      [ ("kind", Str "solve"); ("structure", Str structure); ("n", Int n);
        ("seed", Int seed) ]
  in
  to_string (Obj (base @ fields))

(* ------------------------------------------------------------------ *)
(* Responses                                                           *)
(* ------------------------------------------------------------------ *)

let payload_fields = function
  | Request.Checked { ok; failures; warnings; report } ->
    [ ("ok", Bool ok); ("failures", Int failures); ("warnings", Int warnings);
      ("report", Str report) ]
  | Request.Parsed { items; concepts; models } ->
    [ ("items", Int items); ("concepts", Int concepts); ("models", Int models) ]
  | Request.Linted { errors; warnings; suggestions; messages } ->
    [ ("errors", Int errors); ("warnings", Int warnings);
      ("suggestions", Int suggestions);
      ("messages", Arr (List.map (fun m -> Str m) messages)) ]
  (* "rewrite_steps", not "steps": the envelope already has a "steps"
     field for the budget charge *)
  | Request.Optimized { output; steps; ops_before; ops_after } ->
    [ ("output", Str output); ("rewrite_steps", Int steps);
      ("ops_before", Int ops_before); ("ops_after", Int ops_after) ]
  | Request.Proved { checked; failed } ->
    [ ("checked", Int checked); ("failed", Int failed) ]
  | Request.Closed { size; obligations } ->
    [ ("size", Int size);
      ("obligations", Arr (List.map (fun o -> Str o) obligations)) ]
  (* "kernel_steps" for the same reason as "rewrite_steps" above *)
  | Request.Computed { kernel; detected; n; steps; checksum } ->
    [ ("kernel", Str kernel); ("detected", Str detected); ("n", Int n);
      ("kernel_steps", Int steps); ("checksum", Str checksum) ]

(* The AST response renderer: build the [json] tree, print it. Retained
   as the qcheck oracle for [response_into] below. *)
let response_to_line_ast (r : Request.response) =
  let status_fields =
    match r.Request.rsp_result with
    | Ok payload -> ("status", Str "ok") :: payload_fields payload
    | Error e ->
      [ ("status", Str "error");
        ("error", Str (Request.error_code_name e.Request.code));
        ("detail", Str e.Request.detail) ]
  in
  to_string
    (Obj
       ([ ("id", Int r.Request.rsp_id);
          ( "kind",
            match r.Request.rsp_kind with
            | Some k -> Str (Request.kind_name k)
            | None -> Null ) ]
       @ status_fields
       @ [ ("cached", Bool r.Request.rsp_cached);
           ("steps", Int r.Request.rsp_steps) ]))

(* ------------------------------------------------------------------ *)
(* Direct response rendering: typed IR -> caller's buffer, no AST      *)
(* ------------------------------------------------------------------ *)

(* Byte-identical to [response_to_line_ast], but written straight into a
   (typically per-server, reused) buffer: no field lists, no [json]
   nodes, no intermediate strings. The buffer is owned by the caller;
   this function only appends. *)

let add_str_field buf name s =
  Buffer.add_string buf ",\"";
  Buffer.add_string buf name;
  Buffer.add_string buf "\":\"";
  escape_into buf s;
  Buffer.add_char buf '"'

let add_int_field buf name i =
  Buffer.add_string buf ",\"";
  Buffer.add_string buf name;
  Buffer.add_string buf "\":";
  add_int buf i

let add_bool_field buf name b =
  Buffer.add_string buf ",\"";
  Buffer.add_string buf name;
  Buffer.add_string buf "\":";
  Buffer.add_string buf (if b then "true" else "false")

(* top-level loop, not List.iteri: no per-call closure *)
let rec add_str_elems buf first = function
  | [] -> ()
  | s :: rest ->
    if not first then Buffer.add_char buf ',';
    Buffer.add_char buf '"';
    escape_into buf s;
    Buffer.add_char buf '"';
    add_str_elems buf false rest

let add_str_list_field buf name ss =
  Buffer.add_string buf ",\"";
  Buffer.add_string buf name;
  Buffer.add_string buf "\":[";
  add_str_elems buf true ss;
  Buffer.add_char buf ']'

let payload_into buf = function
  | Request.Checked { ok; failures; warnings; report } ->
    add_bool_field buf "ok" ok;
    add_int_field buf "failures" failures;
    add_int_field buf "warnings" warnings;
    add_str_field buf "report" report
  | Request.Parsed { items; concepts; models } ->
    add_int_field buf "items" items;
    add_int_field buf "concepts" concepts;
    add_int_field buf "models" models
  | Request.Linted { errors; warnings; suggestions; messages } ->
    add_int_field buf "errors" errors;
    add_int_field buf "warnings" warnings;
    add_int_field buf "suggestions" suggestions;
    add_str_list_field buf "messages" messages
  | Request.Optimized { output; steps; ops_before; ops_after } ->
    add_str_field buf "output" output;
    add_int_field buf "rewrite_steps" steps;
    add_int_field buf "ops_before" ops_before;
    add_int_field buf "ops_after" ops_after
  | Request.Proved { checked; failed } ->
    add_int_field buf "checked" checked;
    add_int_field buf "failed" failed
  | Request.Closed { size; obligations } ->
    add_int_field buf "size" size;
    add_str_list_field buf "obligations" obligations
  | Request.Computed { kernel; detected; n; steps; checksum } ->
    add_str_field buf "kernel" kernel;
    add_str_field buf "detected" detected;
    add_int_field buf "n" n;
    add_int_field buf "kernel_steps" steps;
    add_str_field buf "checksum" checksum

let response_into buf (r : Request.response) =
  Buffer.add_string buf "{\"id\":";
  add_int buf r.Request.rsp_id;
  Buffer.add_string buf ",\"kind\":";
  (match r.Request.rsp_kind with
  | Some k ->
    Buffer.add_char buf '"';
    Buffer.add_string buf (Request.kind_name k);
    Buffer.add_char buf '"'
  | None -> Buffer.add_string buf "null");
  (match r.Request.rsp_result with
  | Ok payload ->
    Buffer.add_string buf ",\"status\":\"ok\"";
    payload_into buf payload
  | Error e ->
    Buffer.add_string buf ",\"status\":\"error\",\"error\":\"";
    Buffer.add_string buf (Request.error_code_name e.Request.code);
    Buffer.add_char buf '"';
    add_str_field buf "detail" e.Request.detail);
  add_bool_field buf "cached" r.Request.rsp_cached;
  add_int_field buf "steps" r.Request.rsp_steps;
  Buffer.add_char buf '}'

let response_to_line r =
  let buf = Buffer.create 256 in
  response_into buf r;
  Buffer.contents buf
