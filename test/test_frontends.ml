(* Mutation fuzzing of every text boundary: the three front ends (the
   STLlint program parser, the .gpc concept parser and the Simplicissimus
   expression parser) and the JSON loaders (the JSON parser itself, the
   request decoder, the flight, trace and cluster dump loaders, config
   lines, trace contexts and workload mixes). Each starts from a corpus
   of valid inputs and mutates it by truncation, byte flips, splicing,
   inflating digit runs to 25 digits and deep nesting; JSON inputs also
   get a member repeated or a number negated. Whatever the input, a call must return: a
   result, or the boundary's documented error — never another
   exception. A front end's error must also lie inside the input. *)

open Gp_stllint
open Gp_concepts
open Gp_simplicissimus
module Json = Gp_telemetry.Json
module Context = Gp_telemetry.Context
module Recorder = Gp_telemetry.Recorder
module Tel = Gp_telemetry.Tel
module Wire = Gp_service.Wire
module Request = Gp_service.Request
module Server = Gp_service.Server
module Workload = Gp_service.Workload
module Cluster = Gp_cluster.Cluster
module Trace_set = Gp_tracing.Trace_set

let read_file path = In_channel.with_open_bin path In_channel.input_all

let stllint_corpus =
  read_file "../examples/failing_grades.cxx"
  :: List.map (fun (c : Corpus.case) -> Render.to_source c.Corpus.program)
       Corpus.all

let gpc_corpus =
  read_file "../examples/shapes.gpc"
  :: List.init 4 (fun k -> Perf_shapes.gpc_source (k * 37))

let expr_corpus =
  [ "y + x*1"; "(y + x) * 1"; "x - y"; "f:float * 1.0"; "neg(x)";
    {|s:string ^ ""|}; "(x*1 + 0) + (0 - x)"; "4611686018427387903 * y";
    "x + 1.0"; "(x"; "(x * 1\n   + 0) *\n  y" ]

(* Every axiom statement of the standard world, prose ones included. *)
let statement_corpus =
  List.concat_map
    (fun c -> List.map (fun (ax : Concept.axiom) -> ax.ax_statement) (Concept.axioms c))
    (Registry.concepts (Gp_standard.Standard.world ()))

(* A statement read as an axiom of StrictWeakOrder (so [lt] is a
   relation) over the variables a, b and c. *)
let parse_statement src =
  ignore
    (Gp_athena.Theory.of_statement Gp_algebra.Decls.strict_weak_order
       { Concept.ax_name = "fuzzed"; ax_statement = src;
         ax_vars = [ "a"; "b"; "c" ] })

(* Random bytes, and random runs of the statement grammar's tokens and
   near misses. *)
let random_statement =
  let tokens =
    [ "("; ")"; ","; "="; "<>"; "->"; ":="; "not"; "and"; "or"; "where";
      "a"; "b"; "c"; "op"; "lt"; "id"; "E"; "-"; "<"; ":"; "1"; "@" ]
  in
  QCheck.Gen.(
    frequency
      [ (1, string_size (int_range 0 20));
        (3, map (String.concat " ") (list_size (int_range 0 16) (oneofl tokens)))
      ])

(* The JSON corpora come from the encoders themselves. *)
let requests = Workload.generate ~seed:3 ~n:6 ()

let request_corpus = List.mapi (fun id r -> Wire.request_to_line ~id r) requests

let config_corpus =
  List.map Server.config_to_line
    [ Server.default_config;
      { Server.default_config with timeout = Some 0.25; caching = false } ]

let flight_dump =
  Tel.with_installed (fun _ ->
      let server = Server.create () in
      List.iter
        (fun line -> ignore (Server.serve_line server line))
        (request_corpus @ [ {|{"kind":"prove","theory":"nope"}|} ]);
      Recorder.to_jsonl (Option.get (Server.flight server)))

(* a short traced cluster run: its record dump and its trace dump *)
let cluster_dump, trace_dump =
  let r =
    Cluster.run
      ~config:{ Cluster.default_config with replicas = 2; trace = true }
      (Array.of_list requests)
  in
  (Cluster.dump r, Trace_set.dump (Trace_set.of_result r))

(* the trace dump, and headers claiming replica counts whose lanes
   would not fit in memory *)
let trace_corpus =
  trace_dump
  :: List.map
       (Printf.sprintf
          {|{"gp_trace":1,"replicas":%d,"n":1,"seed":1,"spans":0}|})
       [ max_int; 1_000_000_000 ]

let json_corpus =
  request_corpus @ config_corpus
  @ [ List.hd (String.split_on_char '\n' flight_dump);
      {|[1,-2.5e3,"a\"b\u00e9\n",true,false,null,{"k":[]}]|} ]

let context_corpus = [ "12/34"; "0/0"; "4611686018427387903/1"; "7/99" ]

let mix_corpus = [ "check=2,lint=3,prove=1"; "optimize=1"; "closure=0,parse=5" ]

(* ------------------------------------------------------------------ *)
(* Mutations                                                           *)
(* ------------------------------------------------------------------ *)

open QCheck.Gen

let truncate src =
  let+ n = int_bound (String.length src) in
  String.sub src 0 n

let flip_bytes src =
  if src = "" then return src
  else
    let+ flips =
      list_size (int_range 1 4)
        (pair (int_bound (String.length src - 1)) (map Char.chr (int_bound 255)))
    in
    let b = Bytes.of_string src in
    List.iter (fun (i, c) -> Bytes.set b i c) flips;
    Bytes.to_string b

let splice corpus src =
  let* other = oneofl corpus in
  let* i = int_bound (String.length src) in
  let+ j = int_bound (String.length other) in
  String.sub src 0 i ^ String.sub other j (String.length other - j)

let is_digit c = c >= '0' && c <= '9'

(* Every digit run becomes a 25-digit literal, far beyond max_int; an
   input without digits gets one at a random position. *)
let inflate_digits src =
  let big = String.make 25 '9' in
  if String.exists is_digit src then begin
    let b = Buffer.create (String.length src + 64) in
    String.iteri
      (fun i c ->
        if not (is_digit c) then Buffer.add_char b c
        else if i = 0 || not (is_digit src.[i - 1]) then Buffer.add_string b big)
      src;
    return (Buffer.contents b)
  end
  else
    let+ i = int_bound (String.length src) in
    String.sub src 0 i ^ big ^ String.sub src i (String.length src - i)

(* [depth] copies of [open_] in front and of [close] behind, the closing
   run sometimes cut short *)
let nest open_ close src =
  let* depth = int_range 1 2000 in
  let+ closed = int_bound depth in
  let rep s n = String.concat "" (List.init n (fun _ -> s)) in
  rep open_ depth ^ src ^ rep close closed

(* Repeat one member of an object: the text after a '{' or ',' that
   opens a key, up to the next ',' or '}', is inserted again in front of
   itself. *)
let duplicate_member src =
  let n = String.length src in
  let starts =
    List.filter
      (fun i -> (src.[i] = '{' || src.[i] = ',') && src.[i + 1] = '"')
      (List.init (Int.max 0 (n - 1)) Fun.id)
  in
  if starts = [] then return src
  else
    let+ i = oneofl starts in
    let j = ref (i + 1) in
    while !j < n && src.[!j] <> ',' && src.[!j] <> '}' do
      incr j
    done;
    String.sub src 0 (i + 1)
    ^ String.sub src (i + 1) (!j - i - 1)
    ^ ","
    ^ String.sub src (i + 1) (n - i - 1)

(* Put a minus sign in front of one digit run: counts and sizes go
   negative. *)
let negate_number src =
  let starts =
    List.filter
      (fun i -> is_digit src.[i] && (i = 0 || not (is_digit src.[i - 1])))
      (List.init (String.length src) Fun.id)
  in
  if starts = [] then return src
  else
    let+ i = oneofl starts in
    String.sub src 0 i ^ "-" ^ String.sub src i (String.length src - i)

let mutate ~corpus ~nestings ~json =
  let* src = oneofl corpus in
  let* m =
    frequency
      ([ (3, truncate src); (3, flip_bytes src); (2, splice corpus src);
         (2, inflate_digits src) ]
      @ List.map (fun (o, c) -> (1, nest o c src)) nestings
      @ if json then [ (2, duplicate_member src); (1, negate_number src) ]
        else [])
  in
  (* a second mutation on a quarter of the inputs *)
  frequency [ (3, return m); (1, flip_bytes m); (1, truncate m) ]

(* ------------------------------------------------------------------ *)
(* The property                                                        *)
(* ------------------------------------------------------------------ *)

(* A position inside [src]: on one of its lines or just past the last,
   at a column within that line or just past its end. *)
let in_range src ~line ~col =
  let lines = Array.of_list (String.split_on_char '\n' src) in
  let width =
    if line <= Array.length lines then String.length lines.(line - 1) else 0
  in
  1 <= line && line <= Array.length lines + 1 && 1 <= col && col <= width + 1

(* the front ends' one error, [Lex.Error], carries a position *)
let lex_position = function
  | Lex.Error { line; col; _ } -> Some (line, col)
  | _ -> None

let fuzz ?(count = 3000) ?(json = false) ?(position = fun _ -> None) ~name
    ~corpus ~nestings ~parse ~documented () =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count ~name
       (QCheck.make ~print:(Printf.sprintf "%S")
          (mutate ~corpus ~nestings ~json))
       (fun src ->
         match parse src with
         | () -> true
         | exception e when documented e -> (
           match position e with
           | Some (line, col) when not (in_range src ~line ~col) ->
             QCheck.Test.fail_reportf "%s: position %d:%d outside %S"
               (Printexc.to_string e) line col src
           | _ -> true)
         | exception e ->
           QCheck.Test.fail_reportf "%s escaped on %S" (Printexc.to_string e)
             src))

(* One error past the first line per front end: the exact line, column
   and message. A lexical error points at the offending character, a
   grammar error at the first byte of the offending token. *)
let positioned_errors () =
  let show parse src =
    match parse src with
    | () -> "accepted"
    | exception Lex.Error { line; col; message } ->
      Alcotest.(check bool) (src ^ " in range") true (in_range src ~line ~col);
      Printf.sprintf "%d:%d: %s" line col message
  in
  Alcotest.(check string) "stllint" "3:8: unexpected character @"
    (show
       (fun src -> ignore (Parser.parse_program src))
       "vector<int> v;\niter i = v.begin();\n  *i = @;\n");
  Alcotest.(check string) ".gpc" "3:14: expected an identifier"
    (show
       (fun src -> ignore (Lang.parse_string src))
       "// shapes\nconcept C<T> {\n  axiom a(x, ): \"x\";\n}");
  Alcotest.(check string) "expression" "2:7: unexpected ')'"
    (show (fun src -> ignore (Sparser.parse src)) "x +\n  y * )");
  (* errors found after the parse moved past the token they name *)
  Alcotest.(check string) "stllint member"
    "3:3: unknown container member frob"
    (show
       (fun src -> ignore (Parser.parse_program src))
       "vector<int> v;\niter i = v.begin();\nv.frob(i);\n");
  Alcotest.(check string) "expression operand types"
    "2:5: operands of + have different types (int vs float)"
    (show (fun src -> ignore (Sparser.parse src)) "x *\n  1 + y:float")

let json_nestings = [ ("[", "]"); ({|{"a":|}, "}") ]

(* The direct request decoder and the AST oracle agree on every mutated
   line: the same id and request, or the same error text. *)
let decoders_agree =
  let show = function
    | Ok (id, r) ->
      Printf.sprintf "Ok %s %s"
        (match id with Some i -> string_of_int i | None -> "-")
        (Request.key r)
    | Error m -> "Error " ^ m
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:20_000
       ~name:"request decoders: direct == AST (id, request, error text)"
       (QCheck.make ~print:(Printf.sprintf "%S")
          (mutate ~corpus:request_corpus ~nestings:json_nestings ~json:true))
       (fun src ->
         let direct = Wire.request_of_line src in
         let ast = Oracles.request_of_line_ast src in
         direct = ast
         || QCheck.Test.fail_reportf "direct: %s@.AST:    %s" (show direct)
              (show ast)))

(* String literals against the per-byte oracles: random bodies of plain
   runs, quotes, backslashes, raw control bytes, UTF-8, valid, bad and
   truncated escapes. The escaper writes the oracle's bytes; Json.parse
   and the request decoder accept, reject and word their errors
   (positions included) as the oracle's decoding implies. *)
let string_pieces =
  let open QCheck.Gen in
  let hex = oneofl [ "0041"; "00e9"; "20AC"; "ffff"; "0000"; "001f"; "7ff0" ] in
  oneof
    [ map (fun n -> String.make n 'a') (int_range 1 30);
      oneofl
        [ " "; "\""; "\\"; "\\\""; "\\\\"; "\\/"; "\\n"; "\\t";
          "\\r"; "\\b"; "\\f"; "\n"; "\t"; "\001"; "\031"; "\127";
          "\xc3\xa9"; "\\q"; "\\u12g4"; "\\u_1_2"; "\\u+123"; "\\u12";
          "\\u"; "\\" ];
      map (fun h -> "\\u" ^ h) hex ]

let string_literals =
  let body =
    QCheck.Gen.(map (String.concat "") (list_size (int_range 0 12) string_pieces))
  in
  let show r = match r with Ok v -> "Ok " ^ v | Error m -> "Error " ^ m in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:5_000
       ~name:"string literals == per-byte oracle (escape, parse, wire)"
       (QCheck.make ~print:(Printf.sprintf "%S") body)
       (fun body ->
         (* the escaper, over the raw body *)
         let runs = Buffer.create 16 and bytes = Buffer.create 16 in
         Json.escape_into runs body;
         Oracles.escape_into_reference bytes body;
         if Buffer.contents runs <> Buffer.contents bytes then
           QCheck.Test.fail_reportf "escape: %S, oracle %S"
             (Buffer.contents runs) (Buffer.contents bytes);
         (* Json.parse over the body as a literal *)
         let line = "\"" ^ body ^ "\"" in
         let expected =
           match Oracles.string_body_reference line 1 with
           | Error m -> Error m
           | Ok (s, stop) ->
             let c = { Json.src = line; pos = stop } in
             Json.skip_ws c;
             if c.Json.pos = String.length line then Ok (Json.to_string (Json.Str s))
             else
               Error
                 (Printf.sprintf "at %d: trailing %c after value" c.Json.pos
                    line.[c.Json.pos])
         in
         let parsed =
           match Json.parse line with
           | v -> Ok (Json.to_string v)
           | exception Json.Error m -> Error m
         in
         if parsed <> expected then
           QCheck.Test.fail_reportf "parse: %s@.oracle: %s" (show parsed)
             (show expected);
         (* the request decoder, over the body as a lint source *)
         let prefix = {|{"kind":"lint","source":"|} in
         let line = prefix ^ body ^ {|"}|} in
         let decoded = Wire.request_of_line line in
         match Oracles.string_body_reference line (String.length prefix) with
         | Error m -> decoded = Error ("bad request line: " ^ m)
         | Ok (source, stop) when stop = String.length line - 1 ->
           decoded = Ok (None, Request.Lint { source })
         | Ok _ -> decoded = Oracles.request_of_line_ast line))

(* a boundary that answers with a result or an option: nothing escapes *)
let nothing _ = false

let () =
  Alcotest.run "gp_frontends"
    [
      ( "fuzz",
        [
          fuzz ~name:"stllint parser: only Parse_error escapes"
            ~corpus:stllint_corpus
            ~nestings:[ ("while (p(x)) {\n", "}\n"); ("(", ")") ]
            ~parse:(fun src -> ignore (Parser.parse_program src))
            ~documented:(function Parser.Parse_error _ -> true | _ -> false)
            ~position:lex_position ();
          fuzz ~name:".gpc parser: only Parse_error escapes" ~corpus:gpc_corpus
            ~nestings:[ ("op f : A<", ">"); ("(", ")") ]
            ~parse:(fun src -> ignore (Lang.parse_string src))
            ~documented:(function Lang.Parse_error _ -> true | _ -> false)
            ~position:lex_position ();
          fuzz ~name:"expression parser: only Parse_error escapes"
            ~corpus:expr_corpus
            ~nestings:[ ("(", ")"); ("neg(", ")") ]
            ~parse:(fun src -> ignore (Sparser.parse src))
            ~documented:(function Sparser.Parse_error _ -> true | _ -> false)
            ~position:lex_position ();
          fuzz ~name:"axiom statements: only Lex.Error escapes"
            ~corpus:statement_corpus
            ~nestings:[ ("not ", ""); ("op(", ")") ]
            ~parse:parse_statement
            ~documented:(function Lex.Error _ -> true | _ -> false)
            ~position:lex_position ();
          QCheck_alcotest.to_alcotest
            (QCheck.Test.make ~count:3000
               ~name:"axiom statements: random text, only Lex.Error escapes"
               (QCheck.make ~print:(Printf.sprintf "%S") random_statement)
               (fun src ->
                 match parse_statement src with
                 | () -> true
                 | exception Lex.Error _ -> true));
          Alcotest.test_case "errors past the first line" `Quick
            positioned_errors;
        ] );
      ( "json",
        [
          fuzz ~json:true ~name:"json parser: only Json.Error escapes"
            ~corpus:json_corpus ~nestings:json_nestings
            ~parse:(fun src -> ignore (Json.parse src))
            ~documented:(function Json.Error _ -> true | _ -> false)
            ();
          fuzz ~json:true ~name:"request decoder: nothing escapes"
            ~corpus:request_corpus ~nestings:json_nestings
            ~parse:(fun src -> ignore (Wire.request_of_line src))
            ~documented:nothing ();
          decoders_agree;
          string_literals;
          fuzz ~json:true ~name:"flight dump loader: nothing escapes"
            ~count:1000 ~corpus:[ flight_dump ] ~nestings:json_nestings
            ~parse:(fun src -> ignore (Recorder.of_jsonl src))
            ~documented:nothing ();
          fuzz ~json:true ~name:"config line decoder: nothing escapes"
            ~corpus:config_corpus ~nestings:json_nestings
            ~parse:(fun src -> ignore (Server.config_of_line src))
            ~documented:nothing ();
          fuzz ~json:true ~name:"trace dump loader: nothing escapes"
            ~count:1000 ~corpus:trace_corpus ~nestings:json_nestings
            ~parse:(fun src -> ignore (Trace_set.load src))
            ~documented:nothing ();
          fuzz ~json:true ~name:"cluster dump audit: nothing escapes"
            ~count:300 ~corpus:[ cluster_dump ] ~nestings:json_nestings
            ~parse:(fun src ->
              ignore (Cluster.audit_dump src))
            ~documented:nothing ();
          fuzz ~name:"trace context: nothing escapes" ~corpus:context_corpus
            ~nestings:[] ~parse:(fun src -> ignore (Context.of_string src))
            ~documented:nothing ();
          fuzz ~name:"workload mix: nothing escapes" ~corpus:mix_corpus
            ~nestings:[] ~parse:(fun src -> ignore (Workload.parse_mix src))
            ~documented:nothing ();
        ] );
    ]
