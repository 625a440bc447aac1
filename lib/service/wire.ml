(* The wire format: one JSON object per line, over the Gp_telemetry.Json
   subset. This module holds only the request and response codecs.

   Requests:
     {"id":1,"kind":"check","concept":"Container","types":["varray<int>"]}
     {"kind":"lint","source":"vector<int> v;\n..."}
     {"kind":"optimize","expr":"x*1+0","certified_only":true}
     {"kind":"prove","theory":"group","instance":"int[+]"}
     {"kind":"closure","concept":"IncidenceGraph","types":["adjacency_list"]}
     {"kind":"parse","source":"concept Foo<T> { }"}

   Responses mirror the typed IR: id, kind, ok/error, payload fields,
   cached flag and step count. *)

module Json = Gp_telemetry.Json

(* ------------------------------------------------------------------ *)
(* Requests: one pass from the line to the typed IR                    *)
(* ------------------------------------------------------------------ *)

(* The decoder scans known request shapes straight from the line into
   [Request.t] without materializing a [json] tree. It is one function
   whose field values live in its own locals, so a line writes no
   long-lived block (each pointer store into an old block is a
   [caml_modify]); the byte loops are Wire's own, inlined where they
   are not recursive, and Json is called only off the happy path: a
   string with escapes, a value decoded generically, a number that is
   not a plain integer. Steady-state allocation is the strings the
   request must own and the final record.

   It accepts and rejects exactly what "parse the line, then validate
   the object's fields" would, with the same messages (the test oracle
   that does so is compared on every qcheck round trip and on the
   malformed-line corpus). Wrong-typed values in fields a kind does not
   consume are therefore tolerated: the value is parsed generically and
   the type error is only raised if the kind actually reads that
   field. *)

(* Known field indices, grouped by value type so that a type test is a
   range test: the id; strings (kind .. structure); strings or null
   (defs, instance); booleans (nominal, certified_only); integers (n,
   seed); an array of strings (types). Bit i of a mask tracks field i. *)
let f_id = 0
let f_kind = 1
let f_concept = 2
let f_source = 3
let f_expr = 4
let f_theory = 5
let f_structure = 6
let f_defs = 7
let f_instance = 8
let f_nominal = 9
let f_certified_only = 10
let f_n = 11
let f_seed = 12
let f_types = 13

let known_fields =
  [| "id"; "kind"; "concept"; "source"; "expr"; "theory"; "structure";
     "defs"; "instance"; "nominal"; "certified_only"; "n"; "seed"; "types" |]

(* The scanning loops are [while] loops, so that they inline. *)
let[@inline] skip_ws src n i =
  let i = ref i in
  while
    !i < n
    &&
    match String.unsafe_get src !i with
    | ' ' | '\t' | '\r' | '\n' -> true
    | _ -> false
  do
    incr i
  done;
  !i

(* The index of the first quote or backslash at or after [i], or [n]. *)
let[@inline] run_end src n i =
  let i = ref i in
  while
    !i < n
    &&
    let ch = String.unsafe_get src !i in
    ch <> '"' && ch <> '\\'
  do
    incr i
  done;
  !i

(* Whether the [len] bytes of [src] at [pos] are the first [len] of
   [name]. *)
let same src pos name len =
  let i = ref 0 in
  while
    !i < len && String.unsafe_get src (pos + !i) = String.unsafe_get name !i
  do
    incr i
  done;
  !i = len

let known src pos len name f = if same src pos name len then f else -1

(* The field named by the [len] bytes at [pos], or -1: dispatched on the
   length and the first byte, then compared in place. *)
let field_index src pos len =
  match len with
  | 1 -> known src pos len "n" f_n
  | 2 -> known src pos len "id" f_id
  | 4 -> (
    match String.unsafe_get src pos with
    | 'k' -> known src pos len "kind" f_kind
    | 'd' -> known src pos len "defs" f_defs
    | 'e' -> known src pos len "expr" f_expr
    | 's' -> known src pos len "seed" f_seed
    | _ -> -1)
  | 5 -> known src pos len "types" f_types
  | 6 -> (
    match String.unsafe_get src pos with
    | 's' -> known src pos len "source" f_source
    | 't' -> known src pos len "theory" f_theory
    | _ -> -1)
  | 7 -> (
    match String.unsafe_get src pos with
    | 'c' -> known src pos len "concept" f_concept
    | 'n' -> known src pos len "nominal" f_nominal
    | _ -> -1)
  | 8 -> known src pos len "instance" f_instance
  | 9 -> known src pos len "structure" f_structure
  | 14 -> known src pos len "certified_only" f_certified_only
  | _ -> -1

let[@inline] expect src n i ch =
  if i >= n then Json.fail "at %d: expected %c, found end of input" i ch
  else if String.unsafe_get src i <> ch then
    Json.fail "at %d: expected %c, found %c" i ch (String.unsafe_get src i)

let literal_end src n i word =
  let len = String.length word in
  if i + len <= n && same src i word len then i + len
  else Json.fail "at %d: bad literal" i

(* Unknown keys are kept only to reject a repeated one. *)
let add_unknown kpos key unknown =
  if List.mem key unknown then
    Json.fail "at %d: duplicate key %S in object" kpos key;
  key :: unknown

(* A value the decoder does not read, or one of the wrong type, goes
   through the generic parser, so a malformed one fails with its
   message; the position past it. *)
let skip_value src i =
  let c = { Json.src; pos = i } in
  ignore (Json.value c);
  c.Json.pos

let is_int_start ch = ch = '-' || (ch >= '0' && ch <= '9')

let rec digits_end src n i =
  if i < n && match String.unsafe_get src i with '0' .. '9' -> true | _ -> false
  then digits_end src n (i + 1)
  else i

(* The end of the plain integer at [i] (an optional minus, 1 to 18
   digits, no fraction or exponent after them), or -1: anything else,
   overflowing digit runs included, is read by [Json.number], so a
   malformed number keeps its message. *)
let int_end src n i =
  let d0 = if String.unsafe_get src i = '-' then i + 1 else i in
  let e = digits_end src n d0 in
  if
    e - d0 >= 1 && e - d0 <= 18
    && (e >= n
       ||
       match String.unsafe_get src e with
       | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> false
       | _ -> true)
  then e
  else -1

let rec digits_value src i e v =
  if i = e then v
  else digits_value src (i + 1) e ((v * 10) + Char.code (String.unsafe_get src i) - 48)

let int_value src i e =
  if String.unsafe_get src i = '-' then - digits_value src (i + 1) e 0
  else digits_value src i e 0

(* The validation message for field [f] given the seen and bad masks, or
   "" when the kind may read it: a field seen at its type is fine, one
   of the wrong type is an error, and an absent one is an error unless
   it is optional. *)
let field_error seen bad f =
  let bit = 1 lsl f in
  if seen land bit <> 0 then ""
  else
    let name = known_fields.(f) in
    if bad land bit <> 0 then
      Printf.sprintf "bad request: field %S must be %s" name
        (if f <= f_instance then "a string"
         else if f <= f_certified_only then "a boolean"
         else if f <= f_seed then "an integer"
         else "an array of strings")
    else if f = f_defs || f = f_instance || f = f_nominal
            || f = f_certified_only || f = f_seed
    then ""
    else Printf.sprintf "bad request: missing field %S" name

(* the fields each kind reads, in the order it reads them *)
let check_fields = [ f_concept; f_types; f_nominal; f_defs ]
let source_fields = [ f_source ]
let optimize_fields = [ f_expr; f_certified_only ]
let prove_fields = [ f_theory; f_instance ]
let closure_fields = [ f_concept; f_types ]
let numeric_fields = [ f_structure; f_n; f_seed ]

let rec first_error seen bad = function
  | [] -> ""
  | f :: rest ->
    let e = field_error seen bad f in
    if e = "" then first_error seen bad rest else e

let request_of_line line =
  let src = line and n = String.length line in
  let p = ref (skip_ws src n 0) in
  if !p >= n || String.unsafe_get src !p <> '{' then
    (* not an object: the generic parser positions any syntax error *)
    match Json.parse line with
    | exception Json.Error m -> Error ("bad request line: " ^ m)
    | _ -> Error "bad request line: expected a JSON object"
  else begin
    let keys = ref 0 and seen = ref 0 and bad = ref 0 and unknown = ref [] in
    let id = ref None and kind = ref "" and concept = ref "" in
    let source = ref "" and expr = ref "" and theory = ref "" in
    let structure = ref "" and defs = ref None and instance = ref None in
    let nominal = ref false and certified_only = ref false in
    let num = ref 0 and seed = ref 0 and types = ref [] in
    match
      p := skip_ws src n (!p + 1);
      if !p < n && String.unsafe_get src !p = '}' then incr p
      else begin
        let members = ref true in
        while !members do
          (* the key: matched in place, materialized only when unknown
             or escaped *)
          let kpos = skip_ws src n !p in
          expect src n kpos '"';
          let j = run_end src n (kpos + 1) in
          let f =
            if j < n && String.unsafe_get src j = '"' then begin
              p := j + 1;
              let f = field_index src (kpos + 1) (j - kpos - 1) in
              if f < 0 then
                unknown :=
                  add_unknown kpos (String.sub src (kpos + 1) (j - kpos - 1))
                    !unknown;
              f
            end
            else begin
              let c = { Json.src; pos = kpos + 1 } in
              let key = Json.string_body c in
              p := c.Json.pos;
              let f = field_index key 0 (String.length key) in
              if f < 0 then unknown := add_unknown kpos key !unknown;
              f
            end
          in
          let bit = if f < 0 then 0 else 1 lsl f in
          if !keys land bit <> 0 then
            Json.fail "at %d: duplicate key %S in object" kpos known_fields.(f);
          keys := !keys lor bit;
          let i = skip_ws src n !p in
          expect src n i ':';
          let i = skip_ws src n (i + 1) in
          let ch = if i < n then String.unsafe_get src i else '\000' in
          (* the value, at the field's type; a wrong type marks it bad *)
          if f < 0 then p := skip_value src i
          else if f = f_id || (f >= f_n && f <= f_seed) then begin
            (* a non-integer "id" is silently ignored *)
            if is_int_start ch then begin
              let e = int_end src n i in
              let v = ref 0 and is_int = ref true in
              if e >= 0 then begin
                v := int_value src i e;
                p := e
              end
              else begin
                let c = { Json.src; pos = i } in
                (match Json.number c with
                | Json.Int x -> v := x
                | _ -> is_int := false);
                p := c.Json.pos
              end;
              if f = f_id then (if !is_int then id := Some !v)
              else if !is_int then begin
                seen := !seen lor bit;
                if f = f_n then num := !v else seed := !v
              end
              else bad := !bad lor bit
            end
            else begin
              if f <> f_id then bad := !bad lor bit;
              p := skip_value src i
            end
          end
          else if f <= f_instance then begin
            if ch = '"' then begin
              let j = run_end src n (i + 1) in
              let s =
                if j < n && String.unsafe_get src j = '"' then begin
                  p := j + 1;
                  String.sub src (i + 1) (j - i - 1)
                end
                else begin
                  let c = { Json.src; pos = i + 1 } in
                  let s = Json.string_body c in
                  p := c.Json.pos;
                  s
                end
              in
              seen := !seen lor bit;
              if f = f_kind then kind := s
              else if f = f_concept then concept := s
              else if f = f_source then source := s
              else if f = f_expr then expr := s
              else if f = f_theory then theory := s
              else if f = f_structure then structure := s
              else if f = f_defs then defs := Some s
              else instance := Some s
            end
            else if ch = 'n' && f >= f_defs then begin
              p := literal_end src n i "null";
              seen := !seen lor bit;
              if f = f_defs then defs := None else instance := None
            end
            else begin
              bad := !bad lor bit;
              p := skip_value src i
            end
          end
          else if f <= f_certified_only then begin
            if ch = 't' || ch = 'f' then begin
              let b = ch = 't' in
              p := literal_end src n i (if b then "true" else "false");
              seen := !seen lor bit;
              if f = f_nominal then nominal := b else certified_only := b
            end
            else begin
              bad := !bad lor bit;
              p := skip_value src i
            end
          end
          else if ch = '[' then begin
            (* types: after a comma, a ']' is an error, as in Json.parse *)
            let all_strings = ref true and acc = ref [] in
            p := skip_ws src n (i + 1);
            if !p < n && String.unsafe_get src !p = ']' then incr p
            else begin
              let elems = ref true in
              while !elems do
                let e = skip_ws src n !p in
                if !all_strings && e < n && String.unsafe_get src e = '"' then begin
                  let j = run_end src n (e + 1) in
                  if j < n && String.unsafe_get src j = '"' then begin
                    acc := String.sub src (e + 1) (j - e - 1) :: !acc;
                    p := j + 1
                  end
                  else begin
                    let c = { Json.src; pos = e + 1 } in
                    acc := Json.string_body c :: !acc;
                    p := c.Json.pos
                  end
                end
                else begin
                  all_strings := false;
                  p := skip_value src e
                end;
                let e = skip_ws src n !p in
                if e < n && String.unsafe_get src e = ',' then p := e + 1
                else if e < n && String.unsafe_get src e = ']' then begin
                  p := e + 1;
                  elems := false
                end
                else Json.fail "at %d: expected , or ] in array" e
              done
            end;
            if !all_strings then begin
              types := List.rev !acc;
              seen := !seen lor bit
            end
            else bad := !bad lor bit
          end
          else begin
            bad := !bad lor bit;
            p := skip_value src i
          end;
          let e = skip_ws src n !p in
          if e < n && String.unsafe_get src e = ',' then p := e + 1
          else if e < n && String.unsafe_get src e = '}' then begin
            p := e + 1;
            members := false
          end
          else Json.fail "at %d: expected , or } in object" e
        done
      end;
      let e = skip_ws src n !p in
      if e < n then
        Json.fail "at %d: trailing %c after value" e (String.unsafe_get src e)
    with
    | exception Json.Error m -> Error ("bad request line: " ^ m)
    | () -> (
      let seen = !seen and bad = !bad in
      let err = field_error seen bad f_kind in
      if err <> "" then Error err
      else
        match Request.kind_of_name !kind with
        | None ->
          Error (Printf.sprintf "bad request: unknown request kind %S" !kind)
        | Some k -> (
          let err =
            first_error seen bad
              (match k with
              | Request.Kcheck -> check_fields
              | Request.Kparse | Request.Klint -> source_fields
              | Request.Koptimize -> optimize_fields
              | Request.Kprove -> prove_fields
              | Request.Kclosure -> closure_fields
              | Request.Kmatvec | Request.Kmatmul | Request.Ksolve ->
                numeric_fields)
          in
          if err <> "" then Error err
          else
            let structure = !structure and n = !num and seed = !seed in
            Ok
              ( !id,
                match k with
                | Request.Kcheck ->
                  Request.Check
                    { concept = !concept; types = !types; nominal = !nominal;
                      defs = !defs }
                | Request.Kparse -> Request.Parse { source = !source }
                | Request.Klint -> Request.Lint { source = !source }
                | Request.Koptimize ->
                  Request.Optimize
                    { expr = !expr; certified_only = !certified_only }
                | Request.Kprove ->
                  Request.Prove { theory = !theory; instance = !instance }
                | Request.Kclosure ->
                  Request.Closure { concept = !concept; types = !types }
                | Request.Kmatvec -> Request.Matvec { structure; n; seed }
                | Request.Kmatmul -> Request.Matmul { structure; n; seed }
                | Request.Ksolve -> Request.Solve { structure; n; seed } )))
  end

(* same whitespace set [String.trim] strips, without copying the line *)
let is_blank line =
  let n = String.length line in
  let rec go i =
    i >= n
    ||
    match String.unsafe_get line i with
    | ' ' | '\t' | '\n' | '\r' | '\012' -> go (i + 1)
    | _ -> false
  in
  go 0

(* A workload repeats a few hundred distinct lines thousands of times:
   each distinct line is decoded once and its request shared by every
   repeat, so later content comparisons of two repeats stop at physical
   equality. The file is finite, so every distinct line is kept from its
   first sighting: a server's [Line_memo] admits a line only on its
   second, which here would decode each distinct line twice. *)
let requests_of_lines lines =
  let decoded = Hashtbl.create 256 in
  let rec go acc = function
    | [] -> Ok (Array.of_list (List.rev acc))
    | line :: rest when is_blank line -> go acc rest
    | line :: rest -> (
      match Hashtbl.find decoded line with
      | req -> go (req :: acc) rest
      | exception Not_found -> (
        match request_of_line line with
        | Ok (_, req) ->
          Hashtbl.add decoded line req;
          go (req :: acc) rest
        | Error _ as e -> e))
  in
  go [] lines

let request_to_line ?id req =
  let open Json in
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
(* Responses: typed IR -> caller's buffer, no AST                      *)
(* ------------------------------------------------------------------ *)

(* Byte-identical to printing the response's [json] tree with
   [to_string], but written straight into a (typically per-server,
   reused) buffer: no field lists, no [json] nodes, no intermediate
   strings. The buffer is owned by the caller; this function only
   appends. *)

let add_str_field buf name s =
  Buffer.add_string buf ",\"";
  Buffer.add_string buf name;
  Buffer.add_string buf "\":\"";
  Json.escape_into buf s;
  Buffer.add_char buf '"'

let add_int_field buf name i =
  Buffer.add_string buf ",\"";
  Buffer.add_string buf name;
  Buffer.add_string buf "\":";
  Json.add_int buf i

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
    Json.escape_into buf s;
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
  Json.add_int buf r.Request.rsp_id;
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
    (* an answer served from a cache entry is rendered once: the first
       hit renders straight into [buf] and keeps that slice as the
       entry's fragment, and every later hit copies it *)
    let e = r.Request.rsp_entry in
    if e == Request.no_entry then payload_into buf payload
    else if String.length e.Request.e_wire > 0 then
      Buffer.add_string buf e.Request.e_wire
    else begin
      let start = Buffer.length buf in
      payload_into buf payload;
      e.Request.e_wire <- Buffer.sub buf start (Buffer.length buf - start)
    end
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
