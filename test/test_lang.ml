(* Tests for the concept surface syntax: parsing, loading, checking
   against parsed declarations, error positions, and round-tripping. *)

open Gp_concepts

let n x = Ctype.Named x

let monoid_src =
  {|
  // the algebraic chain, written in the surface syntax
  concept Semigroup<T> {
    op : T, T -> T;
    axiom associativity(a, b, c): "op(op(a,b),c) = op(a,op(b,c))";
    complexity op O(1);
  }

  concept Monoid<T> refines Semigroup<T> {
    id : -> T;
    axiom left_identity(a): "op(id,a) = a";
    axiom right_identity(a): "op(a,id) = a";
  }

  type "int[+]" { elem = int; }
  type int;
  op op : "int[+]", "int[+]" -> "int[+]";
  op id : -> "int[+]";
  model Semigroup<"int[+]"> asserting associativity;
  model Monoid<"int[+]"> asserting left_identity, right_identity;
|}

let test_parse_and_check () =
  let reg = Registry.create () in
  Lang.load_string reg monoid_src;
  Alcotest.(check bool) "Monoid parsed" true
    (Registry.find_concept reg "Monoid" <> None);
  Alcotest.(check bool) "int[+] models Monoid (structural)" true
    (Check.models reg "Monoid" [ n "int[+]" ]);
  Alcotest.(check bool) "int[+] models Monoid (nominal)" true
    (Check.models ~mode:Check.Nominal reg "Monoid" [ n "int[+]" ]);
  (* refinement edge present *)
  Alcotest.(check bool) "Monoid refines Semigroup" true
    (Registry.refines reg "Monoid" "Semigroup")

let test_parsed_equals_programmatic () =
  (* the parsed Semigroup matches the programmatic one structurally *)
  let reg = Registry.create () in
  Lang.load_string reg monoid_src;
  let parsed = Option.get (Registry.find_concept reg "Semigroup") in
  let programmatic = Gp_algebra.Decls.semigroup in
  Alcotest.(check (list string)) "params" programmatic.Concept.params
    parsed.Concept.params;
  Alcotest.(check int) "op count"
    (List.length (Concept.operations programmatic))
    (List.length (Concept.operations parsed));
  Alcotest.(check (list string)) "axiom names"
    (List.map (fun a -> a.Concept.ax_name) (Concept.axioms programmatic))
    (List.map (fun a -> a.Concept.ax_name) (Concept.axioms parsed))

let graph_src =
  {|
  concept InputIterator<I> {
    type value_type;
    deref : I -> I.value_type;
    succ : I -> I;
    iter_eq : I, I -> bool;
    axiom single_pass(i): "copies are invalidated by succ";
  }

  concept GraphEdge<Edge> {
    type vertex_type;
    source : Edge -> Edge.vertex_type;
    target : Edge -> Edge.vertex_type;
  }

  concept IncidenceGraph<Graph> {
    type vertex_type;
    type edge_type where models GraphEdge<Graph.edge_type>;
    type out_edge_iterator where models InputIterator<Graph.out_edge_iterator>;
    same Graph.out_edge_iterator.value_type == Graph.edge_type;
    out_edges : Graph.vertex_type, Graph -> Graph.out_edge_iterator;
    out_degree : Graph.vertex_type, Graph -> int;
    complexity out_edges O(1);
  }
|}

let test_parse_graph_concepts () =
  let reg = Registry.create () in
  Lang.load_string reg graph_src;
  (* declare a conforming model programmatically and check it against the
     PARSED concepts *)
  Registry.declare_type reg "vertex";
  Registry.declare_type reg "int";
  Registry.declare_type reg "e" ~assoc:[ ("vertex_type", n "vertex") ];
  Registry.declare_op reg "source" [ n "e" ] (n "vertex");
  Registry.declare_op reg "target" [ n "e" ] (n "vertex");
  Registry.declare_type reg "it" ~assoc:[ ("value_type", n "e") ];
  Registry.declare_op reg "deref" [ n "it" ] (n "e");
  Registry.declare_op reg "succ" [ n "it" ] (n "it");
  Registry.declare_op reg "iter_eq" [ n "it"; n "it" ] (n "bool");
  Registry.declare_type reg "g"
    ~assoc:
      [ ("vertex_type", n "vertex"); ("edge_type", n "e");
        ("out_edge_iterator", n "it") ];
  Registry.declare_op reg "out_edges" [ n "vertex"; n "g" ] (n "it");
  Registry.declare_op reg "out_degree" [ n "vertex"; n "g" ] (n "int");
  let report = Check.check reg "IncidenceGraph" [ n "g" ] in
  Alcotest.(check bool)
    (Fmt.str "parsed IncidenceGraph checks: %a" Check.pp_report report)
    true (Check.ok report)

(* NOTE: the '== Graph.edge_type' clause on out_edge_iterator constrains
   the iterator's value_type... actually it constrains the assoc type
   projection itself. Verify a violation is caught. *)
let test_parsed_same_type_violation () =
  let reg = Registry.create () in
  Lang.load_string reg graph_src;
  Registry.declare_type reg "vertex";
  Registry.declare_type reg "other";
  Registry.declare_type reg "e2" ~assoc:[ ("vertex_type", n "vertex") ];
  Registry.declare_op reg "source" [ n "e2" ] (n "vertex");
  Registry.declare_op reg "target" [ n "e2" ] (n "vertex");
  Registry.declare_type reg "bad"
    ~assoc:
      [ ("vertex_type", n "vertex"); ("edge_type", n "e2");
        ("out_edge_iterator", n "other") ];
  let report = Check.check reg "IncidenceGraph" [ n "bad" ] in
  Alcotest.(check bool) "violation caught" false (Check.ok report)

let test_complexity_syntax () =
  let src =
    {|
    concept Fast<C> {
      size : C -> int;
      complexity size O(1);
      complexity scan O(n);
      complexity sort O(n log n);
      complexity pairs O(n^2);
      complexity mixed O(n + m);
      complexity push O(1) amortized;
    }
  |}
  in
  let items = Lang.parse_string src in
  match items with
  | [ Lang.Iconcept c ] ->
    let cgs = Concept.complexity_guarantees c in
    let find op = (List.find (fun g -> g.Concept.cg_op = op) cgs).Concept.cg_bound in
    Alcotest.(check string) "O(1)" "O(1)" (Complexity.to_string (find "size"));
    Alcotest.(check string) "O(n)" "O(n)" (Complexity.to_string (find "scan"));
    Alcotest.(check string) "O(n log n)" "O(n log n)"
      (Complexity.to_string (find "sort"));
    Alcotest.(check string) "O(n^2)" "O(n^2)"
      (Complexity.to_string (find "pairs"));
    Alcotest.(check string) "O(n + m)" "O(n + m)"
      (Complexity.to_string (find "mixed"));
    Alcotest.(check bool) "amortized flag" true
      (List.exists
         (fun g -> g.Concept.cg_op = "push" && g.Concept.cg_amortized)
         cgs)
  | _ -> Alcotest.fail "expected one concept"

let test_parse_error_position () =
  let src = "concept Broken<T> {\n  op : T, T -> ;\n}" in
  match Lang.parse_string src with
  | _ -> Alcotest.fail "expected a parse error"
  | exception Lang.Parse_error { line; message; _ } ->
    Alcotest.(check int) "error on line 2" 2 line;
    Alcotest.(check bool) "message mentions type" true
      (String.length message > 0)

let test_unterminated_string () =
  match Lang.parse_string "type \"oops" with
  | _ -> Alcotest.fail "expected a parse error"
  | exception Lang.Parse_error _ -> ()

(* Golden .gpc table: the item count of a parse, or the Parse_error's
   line, column and message. *)
let gpc_golden_inputs =
  [
    ("perfbench defs", Perf_shapes.gpc_source 7);
    ("unterminated string", "type \"oops");
    ("unterminated string across lines", "concept C<T> {\n  axiom a(x): \"ab\ncd");
    ("error after a string across lines", "concept C<T> {\n  axiom a(x): \"ab\n  cd\" ~\n}");
    ("bad character after a comment", "// a comment\n  type t; @");
    ("bad character after a trailing comment", "type t; // fine\n\t#");
    ("literal at end of file", "concept C<T> { complexity f O(n^2");
    ("one at end of file", "concept C<T> { complexity f O(1");
    ("bare literal at end of file", "type t;\n42");
    ("type without semicolon", "type t\nop f : t -> t;");
    ("missing return type", "concept Broken<T> {\n  op : T, T -> ;\n}");
    ("crlf", "concept C<T> {\r\n  f : T -> ;\r\n}");
    ("tabs", "concept C<T> {\n\tf : T -> T\n}");
    ("lone dash", "op f : a - b;");
    ("lone slash", "type t; /");
    ("equals in type fields", "type t { a = b; c == d; }");
    ("bad exponent", "concept C<T> { complexity f O(n^x); }");
    ("unknown item", "\n\n   thing x;");
    ("empty", "");
    ("comment only", "// nothing here");
  ]

let gpc_digest src =
  match Lang.parse_string src with
  | items -> Printf.sprintf "ok %d items" (List.length items)
  | exception Lang.Parse_error { line; col; message } ->
    Printf.sprintf "%d:%d: %s" line col message

(* Recorded with the lexer that scanned through per-character options
   and buffers, with one correction: a grammar error points at the
   first byte of the offending token, where the old lexers pointed just
   past it. *)
let gpc_golden_expected =
  [
    ("perfbench defs", "ok 3 items");
    ("unterminated string", "1:11: unterminated string literal");
    ("unterminated string across lines", "3:3: unterminated string literal");
    ("error after a string across lines", "3:7: unexpected character ~");
    ("bad character after a comment", "2:11: unexpected character @");
    ("bad character after a trailing comment", "2:2: unexpected character #");
    ("literal at end of file", "1:34: expected ')'");
    ("one at end of file", "1:32: expected ')'");
    ("bare literal at end of file",
     "2:1: expected 'concept', 'type', 'op' or 'model'");
    ("type without semicolon", "ok 2 items");
    ("missing return type", "2:16: expected a type");
    ("crlf", "2:12: expected a type");
    ("tabs", "3:1: expected ';'");
    ("lone dash", "1:10: unexpected character -");
    ("lone slash", "1:9: unexpected character /");
    ("equals in type fields", "1:19: expected '='");
    ("bad exponent", "1:33: expected an exponent");
    ("unknown item", "3:4: expected 'concept', 'type', 'op' or 'model'");
    ("empty", "ok 0 items");
    ("comment only", "ok 0 items");
  ]

let test_gpc_golden () =
  Alcotest.(check int) "every input has an entry"
    (List.length gpc_golden_inputs) (List.length gpc_golden_expected);
  List.iter
    (fun (name, src) ->
      Alcotest.(check string) name (List.assoc name gpc_golden_expected)
        (gpc_digest src))
    gpc_golden_inputs

(* An out-of-range literal is a Parse_error at the literal, on any line. *)
let test_literal_out_of_range () =
  List.iter
    (fun (src, expected) ->
      Alcotest.(check string) src expected (gpc_digest src))
    [ ( "concept C<T> { f : T -> T; complexity f O(n^99999999999999999999); }",
        "1:45: integer literal 99999999999999999999 is out of range" );
      ( "concept C<T> {\n  complexity f O(4611686018427387904);\n}",
        "2:18: integer literal 4611686018427387904 is out of range" ) ];
  Alcotest.(check string) "max_int still lexes"
    "1:31: expected a complexity factor"
    (gpc_digest "concept C<T> { complexity f O(4611686018427387903) }")

let test_roundtrip () =
  let reg = Registry.create () in
  Lang.load_string reg monoid_src;
  let original = Option.get (Registry.find_concept reg "Monoid") in
  let source = Lang.to_source original in
  let reparsed =
    match Lang.parse_string source with
    | [ Lang.Iconcept c ] -> c
    | _ -> Alcotest.fail "round-trip did not yield one concept"
  in
  Alcotest.(check string) "name" original.Concept.name reparsed.Concept.name;
  Alcotest.(check int) "requirement count"
    (List.length original.Concept.requirements)
    (List.length reparsed.Concept.requirements)

let test_multi_param_concept () =
  let src =
    {|
    concept VectorSpace<V, S> refines AbelianGroup<V>, Field<S> {
      mult : V, S -> V;
      mult : S, V -> V;
      axiom unit_scalar(x): "mult(x, one) = x";
    }
  |}
  in
  match Lang.parse_string src with
  | [ Lang.Iconcept c ] ->
    Alcotest.(check (list string)) "two params" [ "V"; "S" ] c.Concept.params;
    Alcotest.(check int) "two refinements" 2 (List.length c.Concept.refines);
    Alcotest.(check int) "two mult signatures" 2
      (List.length (Concept.operations c))
  | _ -> Alcotest.fail "expected one concept"

(* constructor applications in types: IEnumerable<Edge> etc. *)
let test_app_types () =
  let src =
    {|
    concept EdgeRange<C> {
      type edge;
      edges : C -> seq<C.edge>;
      pairs : C -> map<C.edge, int>;
    }
  |}
  in
  match Lang.parse_string src with
  | [ Lang.Iconcept c ] -> (
    match Concept.operations c with
    | [ edges; pairs ] ->
      let cedge = Ctype.Assoc (Ctype.Var "C", "edge") in
      Alcotest.(check bool) "seq applied" true
        (Ctype.equal edges.Concept.op_return (Ctype.App ("seq", [ cedge ])));
      Alcotest.(check bool) "two-arg app" true
        (Ctype.equal pairs.Concept.op_return
           (Ctype.App ("map", [ cedge; Ctype.Named "int" ])))
    | _ -> Alcotest.fail "expected two operations")
  | _ -> Alcotest.fail "expected one concept"

(* quoted type names with every special character we rely on. *)
let test_quoted_names () =
  let src =
    {|
    type "vector<int>::iterator" { value_type = int; }
    op deref : "vector<int>::iterator" -> int;
    |}
  in
  let reg = Registry.create () in
  Lang.load_string reg src;
  Alcotest.(check bool) "type registered" true
    (Registry.find_type reg "vector<int>::iterator" <> None);
  Alcotest.(check bool) "op registered" true
    (Registry.find_op reg "deref" [ n "vector<int>::iterator" ] <> None)

(* comments everywhere, including before EOF *)
let test_comments () =
  let src = "// leading\nconcept C<T> { // inline\n f : T -> T; \n } // trailing" in
  Alcotest.(check int) "parses" 1 (List.length (Lang.parse_string src))

(* re-declaring a type merges assoc bindings instead of failing *)
let test_type_merge () =
  let reg = Registry.create () in
  Lang.load_string reg "type widget { a = int; }";
  Lang.load_string reg "type widget { b = bool; }";
  match Registry.find_type reg "widget" with
  | Some td ->
    Alcotest.(check bool) "both bindings" true
      (List.mem_assoc "a" td.Registry.td_assoc
      && List.mem_assoc "b" td.Registry.td_assoc)
  | None -> Alcotest.fail "widget missing"

(* the shipped example file loads and its checks behave as documented *)
let test_shapes_world () =
  let src =
    {|
    concept HasArea<S> { area : S -> float; complexity area O(1); }
    concept HasPerimeter<S> { perimeter : S -> float; }
    concept ClosedShape<S> refines HasArea<S>, HasPerimeter<S> {
      axiom isoperimetric(s): "4 pi area <= perimeter^2";
    }
    type float;
    type circle;
    op area : circle -> float;
    op perimeter : circle -> float;
    type segment;
    op perimeter : segment -> float;
    model ClosedShape<circle> asserting isoperimetric;
  |}
  in
  let reg = Registry.create () in
  Lang.load_string reg src;
  Alcotest.(check bool) "circle is a ClosedShape" true
    (Check.models reg "ClosedShape" [ n "circle" ]);
  Alcotest.(check bool) "segment is not" false
    (Check.models reg "ClosedShape" [ n "segment" ]);
  Alcotest.(check bool) "nominal needs the declaration" false
    (Check.models ~mode:Check.Nominal reg "HasArea" [ n "circle" ])

let () =
  Alcotest.run "gp_lang"
    [
      ( "parsing",
        [
          Alcotest.test_case "parse + check" `Quick test_parse_and_check;
          Alcotest.test_case "matches programmatic" `Quick
            test_parsed_equals_programmatic;
          Alcotest.test_case "graph concepts" `Quick test_parse_graph_concepts;
          Alcotest.test_case "same-type violation" `Quick
            test_parsed_same_type_violation;
          Alcotest.test_case "complexity syntax" `Quick test_complexity_syntax;
          Alcotest.test_case "multi-param" `Quick test_multi_param_concept;
        ] );
      ( "errors",
        [
          Alcotest.test_case "position" `Quick test_parse_error_position;
          Alcotest.test_case "unterminated string" `Quick
            test_unterminated_string;
          Alcotest.test_case "golden positions" `Quick test_gpc_golden;
          Alcotest.test_case "literal out of range" `Quick
            test_literal_out_of_range;
        ] );
      ("roundtrip", [ Alcotest.test_case "monoid" `Quick test_roundtrip ]);
      ( "surface details",
        [
          Alcotest.test_case "app types" `Quick test_app_types;
          Alcotest.test_case "quoted names" `Quick test_quoted_names;
          Alcotest.test_case "comments" `Quick test_comments;
          Alcotest.test_case "type merge" `Quick test_type_merge;
          Alcotest.test_case "shapes world" `Quick test_shapes_world;
        ] );
    ]
