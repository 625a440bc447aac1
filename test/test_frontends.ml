(* Mutation fuzzing of every text boundary: the three front ends (the
   STLlint program parser, the .gpc concept parser and the Simplicissimus
   expression parser) and the JSON loaders (the JSON parser itself, the
   request decoder, the flight, trace and cluster dump loaders, config
   lines, trace contexts and workload mixes). Each starts from a corpus
   of valid inputs and mutates it by truncation, byte flips, splicing,
   inflating digit runs to 25 digits and deep nesting; JSON inputs also
   get a member repeated or a number negated. Whatever the input, a call must return: a
   result, or the boundary's documented error — never another
   exception. *)

open Gp_stllint
open Gp_concepts
open Gp_simplicissimus
module Json = Gp_telemetry.Json
module Context = Gp_telemetry.Context
module Recorder = Gp_telemetry.Recorder
module Tel = Gp_telemetry.Tel
module Wire = Gp_service.Wire
module Server = Gp_service.Server
module Workload = Gp_service.Workload
module Cluster = Gp_cluster.Cluster
module Trace_set = Gp_tracing.Trace_set

let declare_standard = Gp_standard.Standard.declare

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
    "x + 1.0"; "(x" ]

(* The JSON corpora come from the encoders themselves. *)
let requests = Workload.generate ~seed:3 ~n:6 ()

let request_corpus = List.mapi (fun id r -> Wire.request_to_line ~id r) requests

let config_corpus =
  List.map Server.config_to_line
    [ Server.default_config;
      { Server.default_config with timeout = Some 0.25; caching = false } ]

let flight_dump =
  Tel.with_installed (fun _ ->
      let server = Server.create ~declare_standard () in
      List.iter
        (fun line -> ignore (Server.serve_line server line))
        (request_corpus @ [ {|{"kind":"prove","theory":"nope"}|} ]);
      Recorder.to_jsonl (Option.get (Server.flight server)))

(* a short traced cluster run: its record dump and its trace dump *)
let cluster_dump, trace_dump =
  let r =
    Cluster.run
      ~config:{ Cluster.default_config with replicas = 2; trace = true }
      ~declare_standard (Array.of_list requests)
  in
  (Cluster.dump r, Trace_set.dump (Trace_set.of_result r))

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

let fuzz ?(count = 3000) ?(json = false) ~name ~corpus ~nestings ~parse
    ~documented () =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count ~name
       (QCheck.make ~print:(Printf.sprintf "%S")
          (mutate ~corpus ~nestings ~json))
       (fun src ->
         match parse src with
         | () -> true
         | exception e when documented e -> true
         | exception e ->
           QCheck.Test.fail_reportf "%s escaped on %S" (Printexc.to_string e)
             src))

let json_nestings = [ ("[", "]"); ({|{"a":|}, "}") ]

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
            ();
          fuzz ~name:".gpc parser: only Parse_error escapes" ~corpus:gpc_corpus
            ~nestings:[ ("op f : A<", ">"); ("(", ")") ]
            ~parse:(fun src -> ignore (Lang.parse_string src))
            ~documented:(function Lang.Parse_error _ -> true | _ -> false)
            ();
          fuzz ~name:"expression parser: only Parse_error escapes"
            ~corpus:expr_corpus
            ~nestings:[ ("(", ")"); ("neg(", ")") ]
            ~parse:(fun src -> ignore (Sparser.parse src))
            ~documented:(function Sparser.Parse_error _ -> true | _ -> false)
            ();
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
          fuzz ~json:true ~name:"flight dump loader: nothing escapes"
            ~count:1000 ~corpus:[ flight_dump ] ~nestings:json_nestings
            ~parse:(fun src -> ignore (Recorder.of_jsonl src))
            ~documented:nothing ();
          fuzz ~json:true ~name:"config line decoder: nothing escapes"
            ~corpus:config_corpus ~nestings:json_nestings
            ~parse:(fun src -> ignore (Server.config_of_line src))
            ~documented:nothing ();
          fuzz ~json:true ~name:"trace dump loader: nothing escapes"
            ~count:1000 ~corpus:[ trace_dump ] ~nestings:json_nestings
            ~parse:(fun src -> ignore (Trace_set.load src))
            ~documented:nothing ();
          fuzz ~json:true ~name:"cluster dump audit: nothing escapes"
            ~count:300 ~corpus:[ cluster_dump ] ~nestings:json_nestings
            ~parse:(fun src ->
              ignore (Cluster.audit_dump ~declare_standard src))
            ~documented:nothing ();
          fuzz ~name:"trace context: nothing escapes" ~corpus:context_corpus
            ~nestings:[] ~parse:(fun src -> ignore (Context.of_string src))
            ~documented:nothing ();
          fuzz ~name:"workload mix: nothing escapes" ~corpus:mix_corpus
            ~nestings:[] ~parse:(fun src -> ignore (Workload.parse_mix src))
            ~documented:nothing ();
        ] );
    ]
