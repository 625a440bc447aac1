(* Tests for the STLlint surface syntax: the Fig. 4 program written as
   program text must produce the same diagnostics as the hand-built AST,
   and the frontend's contextual argument typing must hold up. *)

open Gp_stllint

let contains s sub =
  let ls = String.length s and lb = String.length sub in
  let rec go i = i + lb <= ls && (String.sub s i lb = sub || go (i + 1)) in
  lb = 0 || go 0

let count_sev sev ds =
  List.length (List.filter (fun d -> d.Interp.d_severity = sev) ds)

(* Fig. 4, as source text. *)
let fig4_src =
  {|
  // extract and erase failing grades -- the buggy version
  vector<student> students;
  vector<student> fail;
  iter it = students.begin();
  iter last = students.end();
  while (it != last) {
    if (fgrade(*it)) {
      fail.push_back(*it);
      students.erase(it);     // result discarded: it becomes singular
    } else {
      ++it;
    }
  }
|}

let test_fig4_from_source () =
  let ds = Parser.check_source fig4_src in
  Alcotest.(check int) "one error" 1 (count_sev Interp.Error ds);
  Alcotest.(check bool) "the singular message" true
    (List.exists
       (fun d -> contains d.Interp.d_message "singular iterator")
       ds)

let fig4_fixed_src =
  {|
  vector<student> students;
  vector<student> fail;
  iter it = students.begin();
  iter last = students.end();
  while (it != last) {
    if (fgrade(*it)) {
      fail.push_back(*it);
      it = students.erase(it);
      last = students.end();
    } else {
      ++it;
    }
  }
|}

let test_fig4_fixed_from_source () =
  let ds = Parser.check_source fig4_fixed_src in
  Alcotest.(check int) "clean" 0 (List.length ds)

let test_sorted_find_from_source () =
  let ds =
    Parser.check_source
      {|
      vector<int> v;
      sort(v);
      iter i = find(v, 42);
    |}
  in
  Alcotest.(check int) "one suggestion" 1 (count_sev Interp.Suggestion ds);
  Alcotest.(check bool) "lower_bound suggested" true
    (List.exists (fun d -> contains d.Interp.d_message "lower_bound") ds)

let test_stream_from_source () =
  let ds =
    Parser.check_source
      {|
      istream cin;
      iter m = max_element(cin);
    |}
  in
  Alcotest.(check bool) "multipass error" true
    (List.exists (fun d -> contains d.Interp.d_message "multipass") ds)

(* contextual argument typing: container vs iterator range vs predicate *)
let test_argument_typing () =
  let program =
    Parser.parse_program
      {|
      vector<int> v;
      iter a = v.begin();
      iter b = v.end();
      count_if(a..b, is_even);
    |}
  in
  match List.rev program with
  | { Ast.node = Ast.Algo { args; _ }; _ } :: _ ->
    Alcotest.(check bool) "range arg" true
      (List.exists
         (function Ast.A_range (Ast.R_iters ("a", "b")) -> true | _ -> false)
         args);
    Alcotest.(check bool) "pred arg" true
      (List.exists (function Ast.A_pred "is_even" -> true | _ -> false) args)
  | _ -> Alcotest.fail "expected an algorithm call"

let test_sorted_annotation () =
  let ds =
    Parser.check_source
      {|
      vector<int> v sorted;
      binary_search(v, 7);
    |}
  in
  Alcotest.(check int) "no warnings: declared sorted" 0
    (count_sev Interp.Warning ds)

let test_labels_carry_source () =
  let ds = Parser.check_source fig4_src in
  match List.find_opt (fun d -> d.Interp.d_severity = Interp.Error) ds with
  | Some d ->
    Alcotest.(check bool) "label shows the offending source" true
      (contains d.Interp.d_where "fgrade")
  | None -> Alcotest.fail "no error"

let test_parse_errors () =
  let cases =
    [ "vector<int> v"; (* missing ; *) "iter x = ;"; "while (x) {";
      "v.push_back(1);" (* undeclared container -> undeclared name error *) ]
  in
  List.iter
    (fun src ->
      match Parser.parse_program src with
      | _ -> Alcotest.failf "accepted %S" src
      | exception Parser.Parse_error _ -> ())
    cases

let test_deque_and_members () =
  let ds =
    Parser.check_source
      {|
      deque<int> d;
      d.push_front(1);
      d.push_back(2);
      d.pop_back();
      iter i = d.begin();
      iter e = d.end();
      if (i != e) { *i; }
    |}
  in
  Alcotest.(check int) "clean" 0 (List.length ds)

(* Golden front-end table: statement count, every statement label (in
   pre-order, nested bodies included) and the rendered diagnostics, or
   the parse error, for fixed inputs. *)

let crlf s = String.concat "\r\n" (String.split_on_char '\n' s)

(* two-space indentation steps become tabs *)
let tabs s =
  String.split_on_char '\n' s
  |> List.map (fun l ->
         let rec indent i =
           if i + 1 < String.length l && l.[i] = ' ' && l.[i + 1] = ' ' then
             indent (i + 2)
           else i
         in
         let k = indent 0 in
         String.make (k / 2) '\t' ^ String.sub l k (String.length l - k))
  |> String.concat "\n"

let golden_inputs =
  List.init 12 (fun k ->
      (Printf.sprintf "perfbench lint %d" k, Perf_shapes.lint_source k))
  @ [
      ("perfbench lint 181", Perf_shapes.lint_source 181);
      ("fig4", fig4_src);
      ("fig4 crlf", crlf fig4_src);
      ("fig4 tabs", tabs fig4_src);
      ("perfbench crlf", crlf (Perf_shapes.lint_source 3));
      ("perfbench tabs", tabs (Perf_shapes.lint_source 6));
      ( "comments between tokens",
        "vector // the container\n<int> v;\n\
         iter // an iterator\n  i = v . // member\n begin ( ) ;\n\
         while (i // left\n != v_end_unknown) { ++ // bump\n i; }\n" );
      ( "comment at end of statement",
        "list<int> l; // a list\niter b = l.begin(); // first\n\
         iter e = l.end();\n*b = 3; // writes through\n" );
      ( "iter as a plain variable",
        "vector<int> v;\niter iter = v.begin();\niter = v.end();\n\
         iter x = iter;\n*iter;\n" );
      ("iter undeclared", "vector<int> v;\niter = v.begin();\n");
      ( "template arguments",
        "vector<int> a;\nlist<student> b sorted;\ndeque<double> c;\n\
         istream<int> d;\nvector e;\nsort(a);\nfind(b, 3);\n" );
      ( "punctuation-led statements",
        "vector<int> v;\niter i = v.begin();\n*i = 3;\n++i;\n--i;\n*i;\n" );
      ( "two statements on a line",
        "vector<int> v; iter i = v.begin(); ++i; *i = 1;\n" );
      ( "nested blocks",
        "list<int> l;\niter i = l.begin();\niter e = l.end();\n\
         while (i != e) {\n\
        \  if (p(*i)) { l.erase(i); } else { if (i == e) { ++i; } }\n\
         }\ncount_if(i..e, is_even);\n" );
      ( "members and algorithms",
        "deque<int> d;\nd.push_front(1);\nd.push_back(f(2, *x));\n\
         d.pop_back();\niter i = d.begin();\niter j = d.insert(i, 4);\nd.erase(j);\n\
         iter m = max_element(d);\nj = d.erase(i);\n" );
      ("empty", "");
      ("comment only", "// nothing\n// at all");
      ("blank lines", "\n\n  \t\n");
      ("missing semicolon", "vector<int> v\niter i = v.begin();\n");
      ("bad character", "vector<int> v;\n\niter i = v.begin() @;\n");
      ("unterminated block", "vector<int> v;\nwhile (x) {\n  sort(v);\n");
      ("bad iterator init", "iter x = ;");
      ("unknown member", "vector<int> v;\nv.frob(1);\n");
      ("undeclared container", "v.push_back(1);");
      ( "iterator condition",
        "vector<int> v;\niter i = v.begin();\nwhile (i < 3) { ++i; }\n" );
      ("number then name", "vector<int> v;\npush(v, 12abc);\n");
      ("single slash", "vector<int> v; / x\n");
    ]

let rec labels acc (st : Ast.stmt) =
  let acc = st.Ast.label :: acc in
  match st.Ast.node with
  | Ast.If (_, a, b) -> List.fold_left labels (List.fold_left labels acc a) b
  | Ast.While (_, body) -> List.fold_left labels acc body
  | _ -> acc

let front_end_digest src =
  match Parser.parse_program src with
  | program ->
    let diags =
      List.map (Fmt.str "diag: %a" Interp.pp_diagnostic) (Interp.check program)
    in
    String.concat "\n"
      (Printf.sprintf "%d statements" (List.length program)
       :: List.rev_map (fun l -> "label: " ^ l)
            (List.fold_left labels [] program)
      @ diags)
  | exception Parser.Parse_error { line; message; _ } ->
    Printf.sprintf "error line %d: %s" line message

(* Recorded with the lexer that scanned through per-character options
   and buffers, with one correction: a statement that starts with
   punctuation ([*i = 3;], [++it;]) is labelled from that token, where
   the old lexer dropped it ([i = 3;], [it;]). *)
let golden_expected =
  [
    ("perfbench lint 0",
     "4 statements\nlabel: vector<_> v0;\nlabel: iter it0 = v0.begin();\nlabel: iter last0 = v0.end();\nlabel: while (it0 != last0) {\nlabel: if (p(*it0)) {\nlabel: v0.erase(it0);\nlabel: ++it0;\ndiag: Error: attempt to dereference a singular iterator\n    at: if (p(*it0)) {");
    ("perfbench lint 1",
     "8 statements\nlabel: vector<_> v0;\nlabel: iter it0 = v0.begin();\nlabel: iter last0 = v0.end();\nlabel: while (it0 != last0) {\nlabel: if (p(*it0)) {\nlabel: it0 = v0.erase(it0);\nlabel: last0 = v0.end();\nlabel: ++it0;\nlabel: vector<_> v1;\nlabel: iter it1 = v1.begin();\nlabel: iter last1 = v1.end();\nlabel: while (it1 != last1) {\nlabel: if (p(*it1)) {\nlabel: it1 = v1.erase(it1);\nlabel: last1 = v1.end();\nlabel: ++it1;");
    ("perfbench lint 2",
     "12 statements\nlabel: vector<_> v0;\nlabel: iter it0 = v0.begin();\nlabel: iter last0 = v0.end();\nlabel: while (it0 != last0) {\nlabel: if (p(*it0)) {\nlabel: it0 = v0.erase(it0);\nlabel: last0 = v0.end();\nlabel: ++it0;\nlabel: vector<_> v1;\nlabel: iter it1 = v1.begin();\nlabel: iter last1 = v1.end();\nlabel: while (it1 != last1) {\nlabel: if (p(*it1)) {\nlabel: it1 = v1.erase(it1);\nlabel: last1 = v1.end();\nlabel: ++it1;\nlabel: vector<_> v2;\nlabel: iter it2 = v2.begin();\nlabel: iter last2 = v2.end();\nlabel: while (it2 != last2) {\nlabel: if (p(*it2)) {\nlabel: it2 = v2.erase(it2);\nlabel: last2 = v2.end();\nlabel: ++it2;");
    ("perfbench lint 3",
     "16 statements\nlabel: vector<_> v0;\nlabel: iter it0 = v0.begin();\nlabel: iter last0 = v0.end();\nlabel: while (it0 != last0) {\nlabel: if (p(*it0)) {\nlabel: v0.erase(it0);\nlabel: ++it0;\nlabel: vector<_> v1;\nlabel: iter it1 = v1.begin();\nlabel: iter last1 = v1.end();\nlabel: while (it1 != last1) {\nlabel: if (p(*it1)) {\nlabel: it1 = v1.erase(it1);\nlabel: last1 = v1.end();\nlabel: ++it1;\nlabel: vector<_> v2;\nlabel: iter it2 = v2.begin();\nlabel: iter last2 = v2.end();\nlabel: while (it2 != last2) {\nlabel: if (p(*it2)) {\nlabel: v2.erase(it2);\nlabel: ++it2;\nlabel: vector<_> v3;\nlabel: iter it3 = v3.begin();\nlabel: iter last3 = v3.end();\nlabel: while (it3 != last3) {\nlabel: if (p(*it3)) {\nlabel: it3 = v3.erase(it3);\nlabel: last3 = v3.end();\nlabel: ++it3;\ndiag: Error: attempt to dereference a singular iterator\n    at: if (p(*it0)) {\ndiag: Error: attempt to dereference a singular iterator\n    at: if (p(*it2)) {");
    ("perfbench lint 4",
     "4 statements\nlabel: vector<_> v0;\nlabel: iter it0 = v0.begin();\nlabel: iter last0 = v0.end();\nlabel: while (it0 != last0) {\nlabel: if (p(*it0)) {\nlabel: it0 = v0.erase(it0);\nlabel: last0 = v0.end();\nlabel: ++it0;");
    ("perfbench lint 5",
     "8 statements\nlabel: vector<_> v0;\nlabel: iter it0 = v0.begin();\nlabel: iter last0 = v0.end();\nlabel: while (it0 != last0) {\nlabel: if (p(*it0)) {\nlabel: it0 = v0.erase(it0);\nlabel: last0 = v0.end();\nlabel: ++it0;\nlabel: vector<_> v1;\nlabel: iter it1 = v1.begin();\nlabel: iter last1 = v1.end();\nlabel: while (it1 != last1) {\nlabel: if (p(*it1)) {\nlabel: it1 = v1.erase(it1);\nlabel: last1 = v1.end();\nlabel: ++it1;");
    ("perfbench lint 6",
     "12 statements\nlabel: vector<_> v0;\nlabel: iter it0 = v0.begin();\nlabel: iter last0 = v0.end();\nlabel: while (it0 != last0) {\nlabel: if (p(*it0)) {\nlabel: v0.erase(it0);\nlabel: ++it0;\nlabel: vector<_> v1;\nlabel: iter it1 = v1.begin();\nlabel: iter last1 = v1.end();\nlabel: while (it1 != last1) {\nlabel: if (p(*it1)) {\nlabel: it1 = v1.erase(it1);\nlabel: last1 = v1.end();\nlabel: ++it1;\nlabel: vector<_> v2;\nlabel: iter it2 = v2.begin();\nlabel: iter last2 = v2.end();\nlabel: while (it2 != last2) {\nlabel: if (p(*it2)) {\nlabel: v2.erase(it2);\nlabel: ++it2;\ndiag: Error: attempt to dereference a singular iterator\n    at: if (p(*it0)) {\ndiag: Error: attempt to dereference a singular iterator\n    at: if (p(*it2)) {");
    ("perfbench lint 7",
     "16 statements\nlabel: vector<_> v0;\nlabel: iter it0 = v0.begin();\nlabel: iter last0 = v0.end();\nlabel: while (it0 != last0) {\nlabel: if (p(*it0)) {\nlabel: it0 = v0.erase(it0);\nlabel: last0 = v0.end();\nlabel: ++it0;\nlabel: vector<_> v1;\nlabel: iter it1 = v1.begin();\nlabel: iter last1 = v1.end();\nlabel: while (it1 != last1) {\nlabel: if (p(*it1)) {\nlabel: it1 = v1.erase(it1);\nlabel: last1 = v1.end();\nlabel: ++it1;\nlabel: vector<_> v2;\nlabel: iter it2 = v2.begin();\nlabel: iter last2 = v2.end();\nlabel: while (it2 != last2) {\nlabel: if (p(*it2)) {\nlabel: it2 = v2.erase(it2);\nlabel: last2 = v2.end();\nlabel: ++it2;\nlabel: vector<_> v3;\nlabel: iter it3 = v3.begin();\nlabel: iter last3 = v3.end();\nlabel: while (it3 != last3) {\nlabel: if (p(*it3)) {\nlabel: it3 = v3.erase(it3);\nlabel: last3 = v3.end();\nlabel: ++it3;");
    ("perfbench lint 8",
     "4 statements\nlabel: vector<_> v0;\nlabel: iter it0 = v0.begin();\nlabel: iter last0 = v0.end();\nlabel: while (it0 != last0) {\nlabel: if (p(*it0)) {\nlabel: it0 = v0.erase(it0);\nlabel: last0 = v0.end();\nlabel: ++it0;");
    ("perfbench lint 9",
     "8 statements\nlabel: vector<_> v0;\nlabel: iter it0 = v0.begin();\nlabel: iter last0 = v0.end();\nlabel: while (it0 != last0) {\nlabel: if (p(*it0)) {\nlabel: v0.erase(it0);\nlabel: ++it0;\nlabel: vector<_> v1;\nlabel: iter it1 = v1.begin();\nlabel: iter last1 = v1.end();\nlabel: while (it1 != last1) {\nlabel: if (p(*it1)) {\nlabel: it1 = v1.erase(it1);\nlabel: last1 = v1.end();\nlabel: ++it1;\ndiag: Error: attempt to dereference a singular iterator\n    at: if (p(*it0)) {");
    ("perfbench lint 10",
     "12 statements\nlabel: vector<_> v0;\nlabel: iter it0 = v0.begin();\nlabel: iter last0 = v0.end();\nlabel: while (it0 != last0) {\nlabel: if (p(*it0)) {\nlabel: it0 = v0.erase(it0);\nlabel: last0 = v0.end();\nlabel: ++it0;\nlabel: vector<_> v1;\nlabel: iter it1 = v1.begin();\nlabel: iter last1 = v1.end();\nlabel: while (it1 != last1) {\nlabel: if (p(*it1)) {\nlabel: it1 = v1.erase(it1);\nlabel: last1 = v1.end();\nlabel: ++it1;\nlabel: vector<_> v2;\nlabel: iter it2 = v2.begin();\nlabel: iter last2 = v2.end();\nlabel: while (it2 != last2) {\nlabel: if (p(*it2)) {\nlabel: it2 = v2.erase(it2);\nlabel: last2 = v2.end();\nlabel: ++it2;");
    ("perfbench lint 11",
     "16 statements\nlabel: vector<_> v0;\nlabel: iter it0 = v0.begin();\nlabel: iter last0 = v0.end();\nlabel: while (it0 != last0) {\nlabel: if (p(*it0)) {\nlabel: it0 = v0.erase(it0);\nlabel: last0 = v0.end();\nlabel: ++it0;\nlabel: vector<_> v1;\nlabel: iter it1 = v1.begin();\nlabel: iter last1 = v1.end();\nlabel: while (it1 != last1) {\nlabel: if (p(*it1)) {\nlabel: it1 = v1.erase(it1);\nlabel: last1 = v1.end();\nlabel: ++it1;\nlabel: vector<_> v2;\nlabel: iter it2 = v2.begin();\nlabel: iter last2 = v2.end();\nlabel: while (it2 != last2) {\nlabel: if (p(*it2)) {\nlabel: it2 = v2.erase(it2);\nlabel: last2 = v2.end();\nlabel: ++it2;\nlabel: vector<_> v3;\nlabel: iter it3 = v3.begin();\nlabel: iter last3 = v3.end();\nlabel: while (it3 != last3) {\nlabel: if (p(*it3)) {\nlabel: it3 = v3.erase(it3);\nlabel: last3 = v3.end();\nlabel: ++it3;");
    ("perfbench lint 181",
     "8 statements\nlabel: vector<_> v0;\nlabel: iter it0 = v0.begin();\nlabel: iter last0 = v0.end();\nlabel: while (it0 != last0) {\nlabel: if (p(*it0)) {\nlabel: it0 = v0.erase(it0);\nlabel: last0 = v0.end();\nlabel: ++it0;\nlabel: vector<_> v1;\nlabel: iter it1 = v1.begin();\nlabel: iter last1 = v1.end();\nlabel: while (it1 != last1) {\nlabel: if (p(*it1)) {\nlabel: it1 = v1.erase(it1);\nlabel: last1 = v1.end();\nlabel: ++it1;");
    ("fig4",
     "5 statements\nlabel: vector<student> students;\nlabel: vector<student> fail;\nlabel: iter it = students.begin();\nlabel: iter last = students.end();\nlabel: while (it != last) {\nlabel: if (fgrade(*it)) {\nlabel: fail.push_back(*it);\nlabel: students.erase(it);     // result discarded: it becomes singular\nlabel: ++it;\ndiag: Error: attempt to dereference a singular iterator\n    at: if (fgrade(*it)) {");
    ("fig4 crlf",
     "5 statements\nlabel: vector<student> students;\nlabel: vector<student> fail;\nlabel: iter it = students.begin();\nlabel: iter last = students.end();\nlabel: while (it != last) {\nlabel: if (fgrade(*it)) {\nlabel: fail.push_back(*it);\nlabel: students.erase(it);     // result discarded: it becomes singular\nlabel: ++it;\ndiag: Error: attempt to dereference a singular iterator\n    at: if (fgrade(*it)) {");
    ("fig4 tabs",
     "5 statements\nlabel: vector<student> students;\nlabel: vector<student> fail;\nlabel: iter it = students.begin();\nlabel: iter last = students.end();\nlabel: while (it != last) {\nlabel: if (fgrade(*it)) {\nlabel: fail.push_back(*it);\nlabel: students.erase(it);     // result discarded: it becomes singular\nlabel: ++it;\ndiag: Error: attempt to dereference a singular iterator\n    at: if (fgrade(*it)) {");
    ("perfbench crlf",
     "16 statements\nlabel: vector<_> v0;\nlabel: iter it0 = v0.begin();\nlabel: iter last0 = v0.end();\nlabel: while (it0 != last0) {\nlabel: if (p(*it0)) {\nlabel: v0.erase(it0);\nlabel: ++it0;\nlabel: vector<_> v1;\nlabel: iter it1 = v1.begin();\nlabel: iter last1 = v1.end();\nlabel: while (it1 != last1) {\nlabel: if (p(*it1)) {\nlabel: it1 = v1.erase(it1);\nlabel: last1 = v1.end();\nlabel: ++it1;\nlabel: vector<_> v2;\nlabel: iter it2 = v2.begin();\nlabel: iter last2 = v2.end();\nlabel: while (it2 != last2) {\nlabel: if (p(*it2)) {\nlabel: v2.erase(it2);\nlabel: ++it2;\nlabel: vector<_> v3;\nlabel: iter it3 = v3.begin();\nlabel: iter last3 = v3.end();\nlabel: while (it3 != last3) {\nlabel: if (p(*it3)) {\nlabel: it3 = v3.erase(it3);\nlabel: last3 = v3.end();\nlabel: ++it3;\ndiag: Error: attempt to dereference a singular iterator\n    at: if (p(*it0)) {\ndiag: Error: attempt to dereference a singular iterator\n    at: if (p(*it2)) {");
    ("perfbench tabs",
     "12 statements\nlabel: vector<_> v0;\nlabel: iter it0 = v0.begin();\nlabel: iter last0 = v0.end();\nlabel: while (it0 != last0) {\nlabel: if (p(*it0)) {\nlabel: v0.erase(it0);\nlabel: ++it0;\nlabel: vector<_> v1;\nlabel: iter it1 = v1.begin();\nlabel: iter last1 = v1.end();\nlabel: while (it1 != last1) {\nlabel: if (p(*it1)) {\nlabel: it1 = v1.erase(it1);\nlabel: last1 = v1.end();\nlabel: ++it1;\nlabel: vector<_> v2;\nlabel: iter it2 = v2.begin();\nlabel: iter last2 = v2.end();\nlabel: while (it2 != last2) {\nlabel: if (p(*it2)) {\nlabel: v2.erase(it2);\nlabel: ++it2;\ndiag: Error: attempt to dereference a singular iterator\n    at: if (p(*it0)) {\ndiag: Error: attempt to dereference a singular iterator\n    at: if (p(*it2)) {");
    ("comments between tokens",
     "3 statements\nlabel: vector // the container\nlabel: iter // an iterator\nlabel: while (i // left\nlabel: ++ // bump");
    ("comment at end of statement",
     "4 statements\nlabel: list<int> l; // a list\nlabel: iter b = l.begin(); // first\nlabel: iter e = l.end();\nlabel: *b = 3; // writes through\ndiag: Warning: possible dereference of a past-the-end iterator: the result of an algorithm was not compared against end()\n    at: *b = 3; // writes through");
    ("iter as a plain variable",
     "5 statements\nlabel: vector<int> v;\nlabel: iter iter = v.begin();\nlabel: iter = v.end();\nlabel: iter x = iter;\nlabel: *iter;\ndiag: Error: attempt to dereference a past-the-end iterator\n    at: *iter;");
    ("iter undeclared",
     "error line 2: unexpected statement starting with iter");
    ("template arguments",
     "7 statements\nlabel: vector<int> a;\nlabel: list<student> b sorted;\nlabel: deque<double> c;\nlabel: istream<int> d;\nlabel: vector e;\nlabel: sort(a);\nlabel: find(b, 3);\ndiag: Suggestion: potential optimization: the incoming sequence [first, last) is sorted, but will be searched linearly with this algorithm. Consider replacing this algorithm with one specialized for sorted sequences (e.g., lower_bound)\n    at: find(b, 3);");
    ("punctuation-led statements",
     "6 statements\nlabel: vector<int> v;\nlabel: iter i = v.begin();\nlabel: *i = 3;\nlabel: ++i;\nlabel: --i;\nlabel: *i;\ndiag: Warning: possible dereference of a past-the-end iterator: the result of an algorithm was not compared against end()\n    at: *i = 3;\ndiag: Warning: possible dereference of a past-the-end iterator: the result of an algorithm was not compared against end()\n    at: *i;");
    ("two statements on a line",
     "4 statements\nlabel: vector<int> v; iter\nlabel: iter i = v.begin(); ++\nlabel: ++i; *\nlabel: *i = 1;\ndiag: Warning: possible dereference of a past-the-end iterator: the result of an algorithm was not compared against end()\n    at: *i = 1;");
    ("nested blocks",
     "5 statements\nlabel: list<int> l;\nlabel: iter i = l.begin();\nlabel: iter e = l.end();\nlabel: while (i != e) {\nlabel: if (p(*i)) { l.erase(i); } else { if (i == e) { ++i; } }\nlabel: l.erase(i); }\nlabel: if (i == e) { ++i; } }\nlabel: ++i; }\nlabel: count_if(i..e, is_even);\ndiag: Warning: attempt to increment a past-the-end iterator\n    at: ++i; }\ndiag: Error: attempt to dereference a singular iterator\n    at: if (p(*i)) { l.erase(i); } else { if (i == e) { ++i; } }\ndiag: Warning: no specification for algorithm count_if: not checked\n    at: count_if(i..e, is_even);");
    ("members and algorithms",
     "9 statements\nlabel: deque<int> d;\nlabel: d.push_front(1);\nlabel: d.push_back(f(2, *x));\nlabel: d.pop_back();\nlabel: iter i = d.begin();\nlabel: iter j = d.insert(i, 4);\nlabel: d.erase(j);\nlabel: iter m = max_element(d);\nlabel: j = d.erase(i);\ndiag: Error: use of undeclared iterator x\n    at: d.push_back(f(2, *x));\ndiag: Error: attempt to dereference an invalidated iterator (container mutated)\n    at: j = d.erase(i);");
    ("empty",
     "0 statements");
    ("comment only",
     "0 statements");
    ("blank lines",
     "0 statements");
    ("missing semicolon",
     "error line 2: expected ';'");
    ("bad character",
     "error line 3: unexpected character @");
    ("unterminated block",
     "error line 4: expected a statement");
    ("bad iterator init",
     "error line 1: expected an iterator initialiser");
    ("unknown member",
     "error line 2: unknown container member frob");
    ("undeclared container",
     "error line 1: unexpected statement starting with v");
    ("iterator condition",
     "error line 3: expected '!=' or '==' after iterator i");
    ("number then name",
     "error line 2: expected ')'");
    ("single slash",
     "error line 1: unexpected character /");
  ]

let test_golden () =
  Alcotest.(check int) "every input has an entry" (List.length golden_inputs)
    (List.length golden_expected);
  List.iter
    (fun (name, src) ->
      Alcotest.(check string) name (List.assoc name golden_expected)
        (front_end_digest src))
    golden_inputs

(* a statement's label starts at its first token, punctuation included *)
let punctuation_label_case stmt =
  Alcotest.test_case ("label of " ^ stmt) `Quick (fun () ->
      let src = "vector<int> v;\niter it = v.begin();\n" ^ stmt ^ "\n" in
      match List.rev (Parser.parse_program src) with
      | last :: _ -> Alcotest.(check string) stmt stmt last.Ast.label
      | [] -> Alcotest.fail "no statements")

(* an integer literal beyond max_int is a Parse_error on its own line *)
let test_literal_out_of_range () =
  let src = "vector<int> v;\niter i = v.begin();\n*i = 99999999999999999999;\n" in
  match Parser.parse_program src with
  | _ -> Alcotest.fail "accepted an out-of-range literal"
  | exception Parser.Parse_error { line; message; _ } ->
    Alcotest.(check int) "line" 3 line;
    Alcotest.(check string) "message"
      "integer literal 99999999999999999999 is out of range" message

(* Round-trip: every corpus program renders to surface syntax and parses
   back structurally equal — and with identical diagnostics. *)
let test_roundtrip_corpus () =
  List.iter
    (fun (c : Corpus.case) ->
      let src = Render.to_source c.Corpus.program in
      match Parser.parse_program src with
      | reparsed ->
        Alcotest.(check bool)
          (c.Corpus.case_name ^ " round-trips:\n" ^ src)
          true
          (Render.block_equal c.Corpus.program reparsed);
        let d1 = Interp.check c.Corpus.program in
        let d2 = Interp.check reparsed in
        Alcotest.(check (list string))
          (c.Corpus.case_name ^ " same diagnostics")
          (List.map (fun d -> d.Interp.d_message) d1)
          (List.map (fun d -> d.Interp.d_message) d2)
      | exception Parser.Parse_error { line; message; _ } ->
        Alcotest.failf "%s: rendered source fails to parse (line %d: %s)\n%s"
          c.Corpus.case_name line message src)
    Corpus.all

let test_roundtrip_generated () =
  let program = Corpus.generate ~blocks:12 ~buggy_every:3 in
  let reparsed = Parser.parse_program (Render.to_source program) in
  Alcotest.(check bool) "generated corpus round-trips" true
    (Render.block_equal program reparsed)

let () =
  Alcotest.run "gp_stllint_parser"
    [
      ( "end to end",
        [
          Alcotest.test_case "fig4 buggy" `Quick test_fig4_from_source;
          Alcotest.test_case "fig4 fixed" `Quick test_fig4_fixed_from_source;
          Alcotest.test_case "sorted find" `Quick
            test_sorted_find_from_source;
          Alcotest.test_case "stream multipass" `Quick
            test_stream_from_source;
        ] );
      ( "frontend",
        [
          Alcotest.test_case "argument typing" `Quick test_argument_typing;
          Alcotest.test_case "sorted annotation" `Quick
            test_sorted_annotation;
          Alcotest.test_case "labels" `Quick test_labels_carry_source;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "deque members" `Quick test_deque_and_members;
          Alcotest.test_case "golden labels and diagnostics" `Quick
            test_golden;
          Alcotest.test_case "literal out of range" `Quick
            test_literal_out_of_range;
        ]
        @ List.map punctuation_label_case
            [ "*it = 3;"; "++it;"; "--it;"; "*it;" ] );
      ( "roundtrip",
        [
          Alcotest.test_case "corpus" `Quick test_roundtrip_corpus;
          Alcotest.test_case "generated" `Quick test_roundtrip_generated;
        ] );
    ]
