(* Mutation fuzzing of the three text front ends: the STLlint program
   parser, the .gpc concept parser and the Simplicissimus expression
   parser. Each starts from a corpus of valid inputs and mutates it by
   truncation, byte flips, splicing, inflating digit runs to 25 digits
   and deep nesting. Whatever the input, a parse must return: a result,
   or the front end's documented Parse_error — never another exception. *)

open Gp_stllint
open Gp_concepts
open Gp_simplicissimus

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

let mutate ~corpus ~nestings =
  let* src = oneofl corpus in
  let* m =
    frequency
      ([ (3, truncate src); (3, flip_bytes src); (2, splice corpus src);
         (2, inflate_digits src) ]
      @ List.map (fun (o, c) -> (1, nest o c src)) nestings)
  in
  (* a second mutation on a quarter of the inputs *)
  frequency [ (3, return m); (1, flip_bytes m); (1, truncate m) ]

(* ------------------------------------------------------------------ *)
(* The property                                                        *)
(* ------------------------------------------------------------------ *)

let fuzz ~name ~corpus ~nestings ~parse ~documented =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:3000 ~name
       (QCheck.make ~print:(Printf.sprintf "%S") (mutate ~corpus ~nestings))
       (fun src ->
         match parse src with
         | () -> true
         | exception e when documented e -> true
         | exception e ->
           QCheck.Test.fail_reportf "%s escaped on %S" (Printexc.to_string e)
             src))

let () =
  Alcotest.run "gp_frontends"
    [
      ( "fuzz",
        [
          fuzz ~name:"stllint parser: only Parse_error escapes"
            ~corpus:stllint_corpus
            ~nestings:[ ("while (p(x)) {\n", "}\n"); ("(", ")") ]
            ~parse:(fun src -> ignore (Parser.parse_program src))
            ~documented:(function Parser.Parse_error _ -> true | _ -> false);
          fuzz ~name:".gpc parser: only Parse_error escapes" ~corpus:gpc_corpus
            ~nestings:[ ("op f : A<", ">"); ("(", ")") ]
            ~parse:(fun src -> ignore (Lang.parse_string src))
            ~documented:(function Lang.Parse_error _ -> true | _ -> false);
          fuzz ~name:"expression parser: only Parse_error escapes"
            ~corpus:expr_corpus
            ~nestings:[ ("(", ")"); ("neg(", ")") ]
            ~parse:(fun src -> ignore (Sparser.parse src))
            ~documented:(function Sparser.Parse_error _ -> true | _ -> false);
        ] );
    ]
