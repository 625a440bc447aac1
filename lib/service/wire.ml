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
open Json

(* The cursor's field accessors, defined here so that they inline: dune's
   dev profile compiles with -opaque, so a call into Json is never
   inlined, and these run several times per request field. The lexing
   itself is Json's. *)
let has c = c.pos < String.length c.src
let cur c = String.unsafe_get c.src c.pos
let advance c = c.pos <- c.pos + 1

(* ------------------------------------------------------------------ *)
(* Requests: cursor -> typed IR, no AST                                *)
(* ------------------------------------------------------------------ *)

(* The decoder parses known request shapes straight from the cursor into
   [Request.t], touching one reused slot record instead of materializing
   a [json] tree. Steady-state allocation is limited to the strings the
   request must own (field payloads) and the final record.

   It accepts and rejects exactly what "parse the line, then validate
   the object's fields" would (the test oracle that does so is compared
   on every qcheck round trip and on the malformed-line corpus).
   Wrong-typed values in fields a kind does not consume are therefore
   tolerated: the value is parsed generically and the type error is only
   raised if the kind actually reads that field. *)

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

(* Match the key in place against the known field names
   ([Json.region_equals]); top-level recursion, so the scan is
   allocation-free. *)
let rec find_field_from src pos len i =
  if i = Array.length known_fields then -1
  else if region_equals src pos len known_fields.(i) then i
  else find_field_from src pos len (i + 1)

let find_field src pos len = find_field_from src pos len 0

(* Parse an int value if the token is a plain integer; anything else —
   including floats and overflowing digit runs — falls back to
   [Json.number] so malformed numbers keep its error messages.
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
    match number c with Int v -> Some v | _ -> None

(* Generic skip for values we do not decode (unknown keys, wrong-typed
   values): reuse the generic parser so malformed content fails with
   exactly its messages. Allocates, but only off the happy path. *)
let skip_value c = ignore (value c)

let parse_direct_string c idx set =
  skip_ws c;
  if has c && cur c = '"' then begin
    advance c;
    set (string_body c);
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
    set (Some (string_body c));
    mark_seen idx
  end
  else if has c && cur c = 'n' then begin
    literal c "null";
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
    literal c "true";
    set true;
    mark_seen idx
  end
  else if has c && cur c = 'f' then begin
    literal c "false";
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

(* A non-integer "id" is silently ignored. *)
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
       acc := string_body c :: !acc
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
      let key = string_body c in
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

(* Slot -> field validation: the messages, checked in the order each
   kind reads its fields. *)
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
        end_of_input c
      with
      | () -> (
        match build_direct_request () with
        | Ok req ->
          Ok ((if slots.s_has_id then Some slots.s_id else None), req)
        | Error m -> Result.error ("bad request: " ^ m))
      | exception Error m -> Result.error ("bad request line: " ^ m)
    end
    else
      (* not an object: the generic parser positions any syntax error *)
      match parse line with
      | exception Error m -> Result.error ("bad request line: " ^ m)
      | _ -> Result.error "bad request line: expected a JSON object"
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
