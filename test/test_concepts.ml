(* Tests for the concept engine: type language, complexity algebra,
   checking, propagation, archetypes, overloading, taxonomies. *)

open Gp_concepts

let n name = Ctype.Named name
let v name = Ctype.Var name

let contains s sub =
  let ls = String.length s and lb = String.length sub in
  let rec go i = i + lb <= ls && (String.sub s i lb = sub || go (i + 1)) in
  lb = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Ctype                                                               *)
(* ------------------------------------------------------------------ *)

let test_ctype_subst () =
  let t = Ctype.Assoc (v "G", "vertex_type") in
  let s = Ctype.subst [ ("G", n "graph") ] t in
  Alcotest.(check string) "subst resolves var" "graph.vertex_type"
    (Ctype.to_string s);
  Alcotest.(check bool) "ground after subst" true (Ctype.is_ground s)

let test_ctype_vars () =
  let t = Ctype.App ("pair", [ v "A"; Ctype.Assoc (v "B", "elem") ]) in
  Alcotest.(check (list string)) "vars in order" [ "A"; "B" ] (Ctype.vars t)

let test_ctype_equal () =
  let a = Ctype.App ("list", [ n "int" ]) in
  let b = Ctype.App ("list", [ n "int" ]) in
  let c = Ctype.App ("list", [ n "float" ]) in
  Alcotest.(check bool) "equal" true (Ctype.equal a b);
  Alcotest.(check bool) "not equal" false (Ctype.equal a c);
  Alcotest.(check int) "compare equal" 0 (Ctype.compare a b)

(* ------------------------------------------------------------------ *)
(* Complexity                                                          *)
(* ------------------------------------------------------------------ *)

let test_complexity_order () =
  let open Complexity in
  Alcotest.(check bool) "1 <= log n" true (leq constant (log_ "n"));
  Alcotest.(check bool) "log n <= n" true (leq (log_ "n") (linear "n"));
  Alcotest.(check bool) "n <= n log n" true (leq (linear "n") (n_log_n "n"));
  Alcotest.(check bool) "n log n <= n^2" true (leq (n_log_n "n") (quadratic "n"));
  Alcotest.(check bool) "n^2 not <= n log n" false
    (leq (quadratic "n") (n_log_n "n"));
  Alcotest.(check bool) "incomparable n vs m" true
    (compare_growth (linear "n") (linear "m") = None)

let test_complexity_algebra () =
  let open Complexity in
  let nlogn = mul (linear "n") (log_ "n") in
  Alcotest.(check bool) "n * log n = n log n" true (equal nlogn (n_log_n "n"));
  (* O(n) + O(n^2) collapses to O(n^2) *)
  let s = add (linear "n") (quadratic "n") in
  Alcotest.(check bool) "sum absorbs dominated" true (equal s (quadratic "n"));
  (* O(n + m) keeps both *)
  let nm = add (linear "n") (linear "m") in
  Alcotest.(check string) "multi-var sum" "O(n + m)" (to_string nm)

let test_complexity_pp () =
  let open Complexity in
  Alcotest.(check string) "constant" "O(1)" (to_string constant);
  Alcotest.(check string) "n log n" "O(n log n)" (to_string (n_log_n "n"));
  Alcotest.(check string) "n^2" "O(n^2)" (to_string (quadratic "n"))

(* Monomial order in pp/to_string is canonical (descending on sorted
   bindings), so construction order never leaks into a report. *)
let test_complexity_pp_canonical () =
  let open Complexity in
  Alcotest.(check string) "n + m both ways" "O(n + m)"
    (to_string (add (linear "m") (linear "n")));
  Alcotest.(check string) "n + m both ways (2)" "O(n + m)"
    (to_string (add (linear "n") (linear "m")));
  Alcotest.(check string) "higher degree first" "O(n^2 + m)"
    (to_string (add (linear "m") (quadratic "n")));
  Alcotest.(check string) "higher degree first (2)" "O(n^2 + m)"
    (to_string (add (quadratic "n") (linear "m")));
  Alcotest.(check string) "three vars" "O(n log n + m^3 + k)"
    (to_string (add (linear "k") (add (power "m" 3) (n_log_n "n"))))

let test_complexity_eval () =
  let open Complexity in
  let env_n x = function "n" -> x | _ -> 1.0 in
  let check name expect t x =
    Alcotest.(check (float 1e-9)) name expect (eval t ~env:(env_n x))
  in
  check "1 at any n" 1.0 constant 1000.0;
  check "n at 64" 64.0 (linear "n") 64.0;
  check "n^2 at 10" 100.0 (quadratic "n") 10.0;
  check "n^3 at 10" 1000.0 (cubic "n") 10.0;
  check "log2 64" 6.0 (log_ "n") 64.0;
  check "n log n at 64" 384.0 (n_log_n "n") 64.0;
  (* the log factor clamps below 2 instead of hitting log 1 = 0 *)
  check "log at n=1 clamps to 1" 1.0 (log_ "n") 1.0;
  (* add normalizes away dominated terms: n + n^2 collapses to n^2 *)
  check "dominated term dropped before eval" 4096.0
    (add (linear "n") (quadratic "n"))
    64.0;
  (* incomparable terms survive normalization and sum termwise *)
  Alcotest.(check (float 1e-9)) "sum evaluates termwise" (4096.0 +. 5.0)
    (eval
       (add (quadratic "n") (linear "m"))
       ~env:(function "n" -> 64.0 | "m" -> 5.0 | _ -> 1.0));
  let env = function "n" -> 16.0 | "b" -> 9.0 | _ -> 1.0 in
  Alcotest.(check (float 1e-9)) "mixed O(n b)" 144.0
    (eval (mul (linear "n") (linear "b")) ~env);
  Alcotest.(check (float 1e-9)) "O(n + m)" 21.0
    (eval
       (add (linear "n") (linear "m"))
       ~env:(function "n" -> 16.0 | "m" -> 5.0 | _ -> 1.0))

let test_complexity_basis () =
  let open Complexity in
  let pair_list =
    Alcotest.(list (list (triple string int int)))
  in
  Alcotest.(check pair_list) "constant" [ [] ] (basis constant);
  Alcotest.(check pair_list) "n log n" [ [ ("n", 1, 1) ] ] (basis (n_log_n "n"));
  Alcotest.(check pair_list) "n^2 + m, canonical order"
    [ [ ("n", 2, 0) ]; [ ("m", 1, 0) ] ]
    (basis (add (linear "m") (quadratic "n")));
  Alcotest.(check pair_list) "mixed monomial sorts its vars"
    [ [ ("b", 1, 0); ("n", 1, 0) ] ]
    (basis (mul (linear "n") (linear "b")))

(* ------------------------------------------------------------------ *)
(* Checking                                                            *)
(* ------------------------------------------------------------------ *)

(* A tiny world: concept Hashable, type key provides hash. *)
let hashable =
  Concept.make ~params:[ "T" ] "Hashable"
    [ Concept.signature "hash" [ v "T" ] (n "int") ]

let test_check_pass () =
  let reg = Registry.create () in
  Registry.declare_concept reg hashable;
  Registry.declare_type reg "int";
  Registry.declare_type reg "key";
  Registry.declare_op reg "hash" [ n "key" ] (n "int");
  Alcotest.(check bool) "key models Hashable" true
    (Check.models reg "Hashable" [ n "key" ])

let test_check_missing_op () =
  let reg = Registry.create () in
  Registry.declare_concept reg hashable;
  Registry.declare_type reg "key";
  let report = Check.check reg "Hashable" [ n "key" ] in
  Alcotest.(check bool) "fails" false (Check.ok report);
  match report.Check.rep_failures with
  | [ Check.Missing_operation { expected } ] ->
    Alcotest.(check string) "names the op" "hash" expected.Concept.op_name
  | _ -> Alcotest.fail "expected a single Missing_operation failure"

let test_check_return_mismatch () =
  let reg = Registry.create () in
  Registry.declare_concept reg hashable;
  Registry.declare_type reg "key";
  Registry.declare_op reg "hash" [ n "key" ] (n "string");
  let report = Check.check reg "Hashable" [ n "key" ] in
  match report.Check.rep_failures with
  | [ Check.Return_type_mismatch { op; _ } ] ->
    Alcotest.(check string) "op name" "hash" op
  | _ -> Alcotest.fail "expected Return_type_mismatch"

let test_check_refinement_failure_is_structured () =
  let reg = Registry.create () in
  Registry.declare_concept reg hashable;
  Registry.declare_concept reg
    (Concept.make ~params:[ "T" ] "HashSetElement"
       ~refines:[ ("Hashable", [ v "T" ]) ]
       [ Concept.signature "eq" [ v "T"; v "T" ] (n "bool") ]);
  Registry.declare_type reg "key";
  Registry.declare_op reg "eq" [ n "key"; n "key" ] (n "bool");
  let report = Check.check reg "HashSetElement" [ n "key" ] in
  match report.Check.rep_failures with
  | [ Check.Refinement_failed { concept; causes; _ } ] ->
    Alcotest.(check string) "refined concept" "Hashable" concept;
    Alcotest.(check int) "one cause" 1 (List.length causes)
  | _ -> Alcotest.fail "expected Refinement_failed"

let test_check_assoc_and_same_type () =
  let reg = Registry.create () in
  let cont =
    Concept.make ~params:[ "C" ] "MiniContainer"
      [
        Concept.assoc_type "value_type";
        Concept.assoc_type "iterator"
          ~constraints:
            [
              Concept.Same_type
                ( Ctype.Assoc (Ctype.Assoc (v "C", "iterator"), "value_type"),
                  Ctype.Assoc (v "C", "value_type") );
            ];
      ]
  in
  Registry.declare_concept reg cont;
  Registry.declare_type reg "int";
  Registry.declare_type reg "float";
  Registry.declare_type reg "intvec_iter"
    ~assoc:[ ("value_type", n "int") ];
  Registry.declare_type reg "intvec"
    ~assoc:[ ("value_type", n "int"); ("iterator", n "intvec_iter") ];
  Alcotest.(check bool) "intvec ok" true
    (Check.models reg "MiniContainer" [ n "intvec" ]);
  (* now a broken container whose iterator disagrees on value_type *)
  Registry.declare_type reg "badvec"
    ~assoc:[ ("value_type", n "float"); ("iterator", n "intvec_iter") ];
  let report = Check.check reg "MiniContainer" [ n "badvec" ] in
  Alcotest.(check bool) "badvec rejected" false (Check.ok report)

let test_check_axiom_warnings () =
  let reg = Registry.create () in
  Gp_algebra.Decls.declare reg;
  let report = Check.check reg "Monoid" [ n "float[*]" ] in
  Alcotest.(check bool) "syntactically fine" true (Check.ok report);
  Alcotest.(check bool) "axiom warnings present" true
    (report.Check.rep_warnings <> [])

let test_certified_axiom_clears_warning () =
  let reg = Registry.create () in
  Gp_algebra.Decls.declare reg;
  let args = [ n "int[+]" ] in
  Registry.certify_axiom reg ~concept:"Semigroup" ~axiom:"associativity" ~args;
  let report = Check.check reg "Semigroup" [ n "int[+]" ] in
  Alcotest.(check bool) "ok" true (Check.ok report);
  let still_warned =
    List.exists
      (function
        | Check.Axiom_asserted_not_proved { axiom = "associativity"; _ } ->
          true
        | _ -> false)
      report.Check.rep_warnings
  in
  Alcotest.(check bool) "associativity warning gone" false still_warned

let test_nominal_mode_requires_declaration () =
  let reg = Registry.create () in
  Registry.declare_concept reg hashable;
  Registry.declare_type reg "key";
  Registry.declare_op reg "hash" [ n "key" ] (n "int");
  (* structurally fine, but no model declared *)
  Alcotest.(check bool) "structural ok" true
    (Check.models ~mode:Check.Structural reg "Hashable" [ n "key" ]);
  Alcotest.(check bool) "nominal rejected" false
    (Check.models ~mode:Check.Nominal reg "Hashable" [ n "key" ]);
  Registry.declare_model reg "Hashable" [ n "key" ];
  Alcotest.(check bool) "nominal ok after declaration" true
    (Check.models ~mode:Check.Nominal reg "Hashable" [ n "key" ])

let test_complexity_guarantee_checked () =
  let reg = Registry.create () in
  Registry.declare_concept reg
    (Concept.make ~params:[ "C" ] "FastSize"
       [
         Concept.signature "size" [ v "C" ] (n "int");
         Concept.complexity "size" Complexity.constant;
       ]);
  Registry.declare_type reg "int";
  Registry.declare_type reg "slowlist";
  Registry.declare_op reg "size" [ n "slowlist" ] (n "int");
  Registry.declare_model reg "FastSize" [ n "slowlist" ]
    ~complexity:[ ("size", Complexity.linear "n") ];
  let report = Check.check reg "FastSize" [ n "slowlist" ] in
  let weak =
    List.exists
      (function Check.Complexity_too_weak _ -> true | _ -> false)
      report.Check.rep_failures
  in
  Alcotest.(check bool) "O(n) size rejected against O(1) guarantee" true weak

(* ------------------------------------------------------------------ *)
(* Graph concepts: Figs. 1 and 2                                       *)
(* ------------------------------------------------------------------ *)

let graph_world () =
  let reg = Registry.create () in
  Gp_graph.Decls.declare reg;
  reg

let test_fig1_fig2 () =
  let reg = graph_world () in
  Alcotest.(check bool) "edge models GraphEdge (Fig 1)" true
    (Check.models reg "GraphEdge" [ n "adjacency_list::edge" ]);
  Alcotest.(check bool) "adjacency_list models IncidenceGraph (Fig 2)" true
    (Check.models reg "IncidenceGraph" [ n "adjacency_list" ]);
  Alcotest.(check bool) "adjacency_matrix models AdjacencyMatrixGraph" true
    (Check.models reg "AdjacencyMatrixGraph" [ n "adjacency_matrix" ]);
  Alcotest.(check bool) "adjacency_list does NOT model AdjacencyMatrixGraph"
    false
    (Check.models reg "AdjacencyMatrixGraph" [ n "adjacency_list" ])

let test_fig2_broken_graph () =
  let reg = graph_world () in
  (* a graph whose edge type lacks target() *)
  Registry.declare_type reg "broken::edge"
    ~assoc:[ ("vertex_type", n "vertex") ];
  Registry.declare_op reg "source" [ n "broken::edge" ] (n "vertex");
  Registry.declare_type reg "broken::iter"
    ~assoc:[ ("value_type", n "broken::edge") ];
  Registry.declare_op reg "deref" [ n "broken::iter" ] (n "broken::edge");
  Registry.declare_op reg "succ" [ n "broken::iter" ] (n "broken::iter");
  Registry.declare_op reg "iter_eq" [ n "broken::iter"; n "broken::iter" ]
    (n "bool");
  Registry.declare_type reg "broken"
    ~assoc:
      [ ("vertex_type", n "vertex"); ("edge_type", n "broken::edge");
        ("out_edge_iterator", n "broken::iter") ];
  Registry.declare_op reg "out_edges" [ n "vertex"; n "broken" ]
    (n "broken::iter");
  Registry.declare_op reg "out_degree" [ n "vertex"; n "broken" ] (n "int");
  let report = Check.check reg "IncidenceGraph" [ n "broken" ] in
  Alcotest.(check bool) "broken graph rejected" false (Check.ok report);
  (* the diagnostic names the missing target op, nested in the edge model *)
  let mentions_target = contains (Fmt.str "%a" Check.pp_report report) "target" in
  Alcotest.(check bool) "diagnostic mentions target" true mentions_target

(* ------------------------------------------------------------------ *)
(* Propagation                                                          *)
(* ------------------------------------------------------------------ *)

let test_propagation_closure () =
  let reg = graph_world () in
  let obs = Propagate.closure reg "IncidenceGraph" [ n "adjacency_list" ] in
  (* root + GraphEdge on edge_type + InputIterator on out_edge_iterator *)
  Alcotest.(check bool) "closure has >= 3 obligations" true
    (List.length obs >= 3);
  let has c =
    List.exists (fun ob -> ob.Propagate.ob_concept = c) obs
  in
  Alcotest.(check bool) "includes GraphEdge" true (has "GraphEdge");
  Alcotest.(check bool) "includes InputIterator" true (has "InputIterator")

let test_propagation_idempotent () =
  let reg = graph_world () in
  let size1 = Propagate.explicit_size reg "VertexListGraph" [ n "adjacency_list" ] in
  let size2 = Propagate.explicit_size reg "VertexListGraph" [ n "adjacency_list" ] in
  Alcotest.(check int) "stable" size1 size2;
  Alcotest.(check bool) "propagation saves constraints" true
    (size1 > Propagate.declared_size)

(* The 2^n blowup of Section 2.4: a tower of two-type concepts, each
   refining two instances of the level below. *)
let test_propagation_exponential_tower () =
  let reg = Registry.create () in
  Registry.declare_type reg "a";
  Registry.declare_type reg "b";
  Registry.declare_concept reg
    (Concept.make ~params:[ "V"; "S" ] "Level0" [ Concept.axiom "t" "true" ]);
  let depth = 6 in
  for i = 1 to depth do
    Registry.declare_concept reg
      (Concept.make ~params:[ "V"; "S" ]
         (Printf.sprintf "Level%d" i)
         ~refines:
           [
             (Printf.sprintf "Level%d" (i - 1), [ v "V"; v "S" ]);
             (Printf.sprintf "Level%d" (i - 1), [ v "S"; v "V" ]);
           ]
         [ Concept.axiom "t" "true" ])
  done;
  (* without dedup the closure would be 2^(depth+1)-1; obligations dedup to
     2 per level (V,S and S,V) but the *written-out* form in a language
     without propagation is the full tree. *)
  let obs =
    Propagate.closure ~max_depth:20 reg
      (Printf.sprintf "Level%d" depth)
      [ n "a"; n "b" ]
  in
  Alcotest.(check bool) "closure deduplicates" true (List.length obs <= 2 * (depth + 1));
  Alcotest.(check bool) "more than one obligation" true (List.length obs > depth)

(* ------------------------------------------------------------------ *)
(* Indexed registry lookups == linear-scan reference (property)        *)
(* ------------------------------------------------------------------ *)

(* The registry now answers find_concept / find_type / find_model /
   find_ops / refines from generation-keyed hashtable indexes. These
   properties pit every lookup against a scan of the registry's exposed
   association lists (the seed implementation), on random worlds, before
   and after interleaved mutations — including a Lang.load_items-style
   direct field write — so a stale index can never go unnoticed. *)

let qtest = QCheck_alcotest.to_alcotest

let nconcepts = 8
let ntypes = 5
let cname i = Printf.sprintf "C%d" i
let tyname i = Printf.sprintf "ty%d" i

let find_concept_ref (reg : Registry.t) name =
  List.assoc_opt name reg.Registry.concepts

let find_type_ref (reg : Registry.t) name =
  List.assoc_opt name reg.Registry.types

let ctype_args_equal a1 a2 =
  List.length a1 = List.length a2 && List.for_all2 Ctype.equal a1 a2

let find_model_ref (reg : Registry.t) concept args =
  List.find_opt
    (fun m ->
      String.equal m.Registry.mo_concept concept
      && ctype_args_equal m.Registry.mo_args args)
    reg.Registry.models

let find_ops_ref (reg : Registry.t) name params =
  List.filter
    (fun (s : Concept.signature) ->
      String.equal s.Concept.op_name name
      && ctype_args_equal s.Concept.op_params params)
    reg.Registry.ops

let refines_ref (reg : Registry.t) a b =
  let rec go visited c =
    if String.equal c b then true
    else if List.mem c visited then false
    else
      List.exists
        (fun (x, y) -> String.equal x c && go (c :: visited) y)
        reg.Registry.refinement_edges
  in
  go [] a

type world_decl = {
  w_edges : (int * int) list; (* concept i refines concept j, j < i *)
  w_reqs : (int * int) list; (* concept i requires Models C_j, j < i *)
  w_ops : (string * int list * int) list;
  w_models : (int * int) list; (* (concept index, argument type index) *)
}

let world_arb =
  let open QCheck.Gen in
  let edge =
    int_range 1 (nconcepts - 1) >>= fun i ->
    int_range 0 (i - 1) >>= fun j -> return (i, j)
  in
  let op =
    oneofl [ "f"; "g"; "h" ] >>= fun name ->
    list_size (int_range 0 2) (int_range 0 (ntypes - 1)) >>= fun ps ->
    int_range 0 (ntypes - 1) >>= fun ret -> return (name, ps, ret)
  in
  let model =
    int_range 0 (nconcepts - 1) >>= fun c ->
    int_range 0 (ntypes - 1) >>= fun a -> return (c, a)
  in
  QCheck.make
    ( list_size (int_range 0 10) edge >>= fun w_edges ->
      list_size (int_range 0 6) edge >>= fun w_reqs ->
      list_size (int_range 0 12) op >>= fun w_ops ->
      list_size (int_range 0 10) model >>= fun w_models ->
      return { w_edges; w_reqs; w_ops; w_models } )

let build_registry w =
  let reg = Registry.create () in
  for i = 0 to ntypes - 1 do
    Registry.declare_type reg (tyname i)
  done;
  for i = 0 to nconcepts - 1 do
    let refines =
      List.filter_map
        (fun (x, j) ->
          if x = i then Some (cname j, [ Ctype.Var "T" ]) else None)
        w.w_edges
    in
    let reqs =
      List.filter_map
        (fun (x, j) ->
          if x = i then
            Some
              (Concept.Constraint (Concept.Models (cname j, [ Ctype.Var "T" ])))
          else None)
        w.w_reqs
    in
    Registry.declare_concept reg
      (Concept.make ~params:[ "T" ] ~refines (cname i)
         (Concept.axiom "t" "true" :: reqs))
  done;
  List.iter
    (fun (name, ps, ret) ->
      Registry.declare_op reg name
        (List.map (fun p -> n (tyname p)) ps)
        (n (tyname ret)))
    w.w_ops;
  List.iter
    (fun (c, a) -> Registry.declare_model reg (cname c) [ n (tyname a) ])
    w.w_models;
  reg

(* Apply a second declaration batch to an existing registry: more ops and
   models, a fresh concept, and a Lang.load_items-style direct mutation
   of the [types] field followed by [touch]. *)
let mutate_registry reg w =
  List.iter
    (fun (name, ps, ret) ->
      Registry.declare_op reg name
        (List.map (fun p -> n (tyname p)) ps)
        (n (tyname ret)))
    w.w_ops;
  List.iter
    (fun (c, a) -> Registry.declare_model reg (cname c) [ n (tyname a) ])
    w.w_models;
  (match w.w_edges with
  | (_, j) :: _ ->
    Registry.declare_concept reg
      (Concept.make ~params:[ "T" ]
         ~refines:[ (cname j, [ Ctype.Var "T" ]) ]
         "Extra"
         [ Concept.axiom "t" "true" ])
  | [] -> ());
  reg.Registry.types <-
    ( tyname 0,
      { Registry.td_name = tyname 0; td_assoc = [ ("elem", n (tyname 1)) ];
        td_doc = "shadow" } )
    :: reg.Registry.types;
  Registry.touch reg

let registry_lookups_agree w reg =
  let ok = ref true in
  let check b = ok := !ok && b in
  for i = 0 to nconcepts - 1 do
    check
      (Registry.find_concept reg (cname i) = find_concept_ref reg (cname i));
    for j = 0 to nconcepts - 1 do
      check
        (Registry.refines reg (cname i) (cname j)
        = refines_ref reg (cname i) (cname j))
    done;
    for a = 0 to ntypes - 1 do
      check
        (Registry.find_model reg (cname i) [ n (tyname a) ]
        = find_model_ref reg (cname i) [ n (tyname a) ])
    done
  done;
  for t = 0 to ntypes - 1 do
    check (Registry.find_type reg (tyname t) = find_type_ref reg (tyname t))
  done;
  List.iter
    (fun (name, ps, _) ->
      let params = List.map (fun p -> n (tyname p)) ps in
      check (Registry.find_ops reg name params = find_ops_ref reg name params))
    w.w_ops;
  check (Registry.find_concept reg "nope" = None);
  check (Registry.find_type reg "nope" = None);
  check (Registry.find_ops reg "zz" [] = []);
  check (Registry.refines reg "nope" (cname 0) = refines_ref reg "nope" (cname 0));
  !ok

let closures_agree reg =
  let idxs = List.init nconcepts (fun i -> i) in
  List.for_all
    (fun i ->
      Propagate.closure reg (cname i) [ n (tyname 0) ]
      = Oracles.closure_reference reg (cname i) [ n (tyname 0) ])
    idxs

let registry_equiv_prop =
  qtest
    (QCheck.Test.make
       ~name:"indexed registry lookups == list scans (random worlds)"
       ~count:200
       (QCheck.pair world_arb world_arb)
       (fun (w1, w2) ->
         let reg = build_registry w1 in
         registry_lookups_agree w1 reg
         && begin
              mutate_registry reg w2;
              registry_lookups_agree w2 reg
            end))

let closure_equiv_prop =
  qtest
    (QCheck.Test.make
       ~name:"hashed worklist closure == quadratic reference" ~count:200
       (QCheck.pair world_arb world_arb)
       (fun (w1, w2) ->
         let reg = build_registry w1 in
         closures_agree reg
         && begin
              mutate_registry reg w2;
              closures_agree reg
            end))

(* Telemetry transparency: checking and propagation return the same
   reports/observations with a sink installed (spans + counters
   recorded) as with the default no-op switchboard. *)
let telemetry_transparent_prop =
  qtest
    (QCheck.Test.make
       ~name:"telemetry never changes check/closure results" ~count:100
       world_arb
       (fun w ->
         let reg = build_registry w in
         let run () =
           List.init nconcepts (fun i ->
               ( Check.check reg (cname i) [ n (tyname 0) ],
                 Propagate.closure reg (cname i) [ n (tyname 0) ] ))
         in
         let off = run () in
         let on = Gp_telemetry.Tel.with_installed (fun _sink -> run ()) in
         off = on))

(* ------------------------------------------------------------------ *)
(* Forks                                                               *)
(* ------------------------------------------------------------------ *)

(* A fork of a random world, mutated like the index property above
   (ops, models, a refining concept, a shadowing direct [types] write),
   answers exactly as list scans over its own lists, and leaves its
   parent's lists, generation and answers untouched. *)
let fork_random_world_prop =
  qtest
    (QCheck.Test.make ~name:"fork lookups == list scans; parent untouched"
       ~count:200
       (QCheck.pair world_arb world_arb)
       (fun (w1, w2) ->
         let parent = build_registry w1 in
         let before = parent.Registry.generation in
         let types = parent.Registry.types and ops = parent.Registry.ops in
         (* indexed before the fork, as the shared registry is *)
         ignore (registry_lookups_agree w1 parent);
         let child = Registry.fork parent in
         mutate_registry child w2;
         registry_lookups_agree w2 child
         && registry_lookups_agree w1 parent
         && parent.Registry.generation = before
         && parent.Registry.types == types
         && parent.Registry.ops == ops))

(* Random .gpc worlds over the standard world. Each item is named by its
   position, so names are fresh unless an item means to collide. *)
type fork_item =
  | Fnew_concept of int list * bool (* refined concepts; with an op *)
  | Fdup_concept of int * int (* re-declares a name; refines another *)
  | Fnew_type of int (* number of associated types *)
  | Fredeclare_type of int (* adds an associated type to an old type *)
  | Fshared_op of int * bool (* a standard op's name and params *)
  | Fnew_op of int * int
  | Fmodel of int * int (* concept, argument type *)

let fork_items_gen =
  let open QCheck.Gen in
  let k = int_bound 10_000 in
  list_size (int_range 1 10)
    (frequency
       [ (3, map2 (fun rs op -> Fnew_concept (rs, op))
                (list_size (int_range 0 2) k) bool);
         (2, map2 (fun i r -> Fdup_concept (i, r)) k k);
         (2, map (fun i -> Fnew_type (i mod 3)) k);
         (2, map (fun i -> Fredeclare_type i) k);
         (2, map2 (fun i b -> Fshared_op (i, b)) k bool);
         (1, map2 (fun i j -> Fnew_op (i, j)) k k);
         (3, map2 (fun i j -> Fmodel (i, j)) k k) ])

let standard = lazy (Gp_standard.Standard.registry ())

(* Materialize specs against the standard world. Concept picks lean on
   the concepts declared so far and on "Ghost", undeclared until a
   duplicate-concept item declares it: refining it before that leaves
   an edge to a name a later fork may give edges of its own. *)
let fork_items specs =
  let std = Lazy.force standard in
  let std_concepts = List.rev_map fst std.Registry.concepts in
  let std_types = List.rev_map fst std.Registry.types in
  let std_ops = Array.of_list std.Registry.ops in
  let arity name =
    match Registry.find_concept std name with
    | Some c -> List.length c.Concept.params
    | None -> 1
  in
  let pick l i = List.nth l (i mod List.length l) in
  let concepts = ref [] and types = ref [] in
  let items =
    List.mapi
      (fun i spec ->
        let cpick r =
          match (r mod 4, !concepts) with
          | 0, _ -> "Ghost"
          | 1, (_ :: _ as mine) -> pick mine (r / 4)
          | _ -> pick std_concepts (r / 4)
        in
        let tpool () = std_types @ List.rev !types in
        match spec with
        | Fnew_concept (rs, with_op) ->
          let name = Printf.sprintf "N%d" i in
          let refines =
            List.map
              (fun r ->
                let c = cpick r in
                (c, List.init (arity c) (fun _ -> Ctype.Var "T")))
              rs
          in
          let reqs =
            Concept.assoc_type "elem"
            ::
            (if with_op then
               [ Concept.Operation
                   { Concept.op_name = Printf.sprintf "op%d" i;
                     op_params = [ Ctype.Var "T" ];
                     op_return = Ctype.Assoc (Ctype.Var "T", "elem");
                     op_doc = "" } ]
             else [])
          in
          concepts := name :: !concepts;
          Lang.Iconcept (Concept.make ~params:[ "T" ] ~refines name reqs)
        | Fdup_concept (j, r) ->
          let c = cpick r in
          Lang.Iconcept
            (Concept.make ~params:[ "T" ]
               ~refines:[ (c, List.init (arity c) (fun _ -> Ctype.Var "T")) ]
               (cpick j)
               [ Concept.axiom "t" "true" ])
        | Fnew_type nassoc ->
          let name = Printf.sprintf "t%d" i in
          types := name :: !types;
          Lang.Itype
            { name;
              assoc =
                List.init nassoc (fun a ->
                    (Printf.sprintf "a%d" a, n (pick std_types (i + a)))) }
        | Fredeclare_type j ->
          Lang.Itype
            { name = pick (tpool ()) j;
              assoc = [ ("elem", n "int"); (Printf.sprintf "x%d" i, n "bool") ] }
        | Fshared_op (j, same_ret) ->
          let s = std_ops.(j mod Array.length std_ops) in
          Lang.Iop
            { name = s.Concept.op_name; params = s.Concept.op_params;
              ret = (if same_ret then s.Concept.op_return else n "int") }
        | Fnew_op (j, t) ->
          Lang.Iop
            { name = Printf.sprintf "f%d" (j mod 3);
              params = [ n (pick (tpool ()) t) ];
              ret = n (pick (tpool ()) (t + 1)) }
        | Fmodel (c, t) ->
          let concept = cpick c in
          Lang.Imodel
            { concept;
              args =
                List.init (arity concept) (fun a -> n (pick (tpool ()) (t + a)));
              axioms = [] })
      specs
  in
  (items, List.rev !concepts, List.rev !types)

let load reg items =
  match Lang.load_items reg items with
  | () -> None
  | exception Registry.Duplicate what -> Some what

let report reg concept args =
  match Check.check reg concept args with
  | r -> Fmt.str "%a" Check.pp_report r
  | exception e -> "raised " ^ Printexc.to_string e

(* Every answer a registry gives over the names [items] mention and the
   whole standard world, rendered to comparable values. *)
let registry_answers reg (items, concepts, types) =
  let std = Lazy.force standard in
  let names =
    List.rev_map fst std.Registry.concepts @ concepts @ [ "Ghost"; "nope" ]
  in
  let tnames = List.rev_map fst std.Registry.types @ types @ [ "nope" ] in
  let models =
    List.filter_map
      (function Lang.Imodel { concept; args; _ } -> Some (concept, args)
              | _ -> None)
      items
  in
  ( Registry.generation reg,
    List.map (fun c -> (Registry.find_concept reg c, Registry.refinement_depth reg c)) names,
    List.concat_map
      (fun a -> List.filter (Registry.refines reg a) names)
      names,
    List.map (Registry.find_type reg) tnames,
    List.map
      (fun (s : Concept.signature) ->
        Registry.find_ops reg s.Concept.op_name s.Concept.op_params)
      reg.Registry.ops,
    List.map
      (fun (c, args) -> Registry.find_model reg c args)
      (models
      @ List.map (fun m -> (m.Registry.mo_concept, m.Registry.mo_args))
          reg.Registry.models),
    List.map (fun (c, args) -> report reg c args) models
    @ List.concat_map
        (fun c ->
          List.map
            (fun t -> report reg c [ n t ])
            (types @ [ "int"; "vector<int>" ]))
        (concepts @ [ "Monoid"; "Container" ]) )

(* Load [specs] into a fresh standard world, and in two halves through
   a fork of a fork of the shared one: same Duplicate, same lists, same
   answers. *)
let fork_matches_fresh specs =
  let ((items, _, _) as world) = fork_items specs in
  let fresh = Gp_standard.Standard.registry () in
  let fresh_outcome = load fresh items in
  let cut = List.length items / 2 in
  let first = List.filteri (fun i _ -> i < cut) items in
  let rest = List.filteri (fun i _ -> i >= cut) items in
  let f1 = Registry.fork (Lazy.force standard) in
  let forked, fork_outcome =
    match load f1 first with
    | Some _ as dup -> (f1, dup)
    | None ->
      let f2 = Registry.fork f1 in
      (f2, load f2 rest)
  in
  if fork_outcome <> fresh_outcome then
    QCheck.Test.fail_reportf "Duplicate: fork %s, fresh %s"
      (Option.value ~default:"none" fork_outcome)
      (Option.value ~default:"none" fresh_outcome);
  forked.Registry.types = fresh.Registry.types
  && forked.Registry.models = fresh.Registry.models
  && registry_answers forked world = registry_answers fresh world

let fork_equiv_prop =
  qtest
    (QCheck.Test.make
       ~name:"fork + load == fresh standard world + load (random .gpc)"
       ~count:150
       (QCheck.make fork_items_gen)
       fork_matches_fresh)

(* The inner fork gives edges to a name the outer fork's concept only
   refined: N0 refines Ghost, then Ghost refines a standard concept. *)
let test_fork_extends_parent_closure () =
  Alcotest.(check bool) "N0's closure reaches through Ghost" true
    (fork_matches_fresh [ Fnew_concept ([ 0 ], false); Fdup_concept (0, 2) ])

(* Forking never touches the parent: after many forks, each loaded with
   random declarations, the shared standard world still has its
   generation and lists, and answers as a fresh one does. *)
let test_fork_leaves_parent () =
  let std = Lazy.force standard in
  let gen = std.Registry.generation and concepts = std.Registry.concepts in
  let types = std.Registry.types and ops = std.Registry.ops in
  let rand = Random.State.make [| 12 |] in
  for _ = 1 to 60 do
    let items, _, _ = fork_items (QCheck.Gen.generate1 ~rand fork_items_gen) in
    ignore (load (Registry.fork std) items)
  done;
  Alcotest.(check int) "generation" gen std.Registry.generation;
  Alcotest.(check bool) "lists physically unchanged" true
    (std.Registry.concepts == concepts && std.Registry.types == types
    && std.Registry.ops == ops);
  let world = ([], [], []) in
  Alcotest.(check bool) "answers as a fresh standard world" true
    (registry_answers std world
    = registry_answers (Gp_standard.Standard.registry ()) world)

(* A parent mutated after the fork: the fork must not see the parent's
   later declarations through its fall-through lookups. *)
let test_fork_of_mutated_parent () =
  let parent = Gp_standard.Standard.registry () in
  let items, concepts, types =
    fork_items [ Fnew_concept ([ 0 ], true); Fnew_type 1; Fmodel (0, 0) ]
  in
  let child = Registry.fork parent in
  ignore (load child items);
  let world = (items, "Late" :: concepts, types) in
  let before = registry_answers child world in
  Registry.declare_concept parent
    (Concept.make ~params:[ "T" ] ~refines:[ ("N0", [ Ctype.Var "T" ]) ]
       "Late" []);
  Registry.declare_op parent "f0" [ n "int" ] (n "int");
  Alcotest.(check bool) "child answers unchanged" true
    (registry_answers child world = before);
  let oracle = Gp_standard.Standard.registry () in
  ignore (load oracle items);
  Alcotest.(check bool) "child answers as a fresh rebuild" true
    (registry_answers child world = registry_answers oracle world)

(* ------------------------------------------------------------------ *)
(* Verdict memo                                                        *)
(* ------------------------------------------------------------------ *)

(* Mutations of a loaded world, interleaved with rounds of checks. *)
type memo_mutation =
  | Mmodel of int * int (* concept, argument type *)
  | Mtype of int (* a fresh type with an associated type *)
  | Mwrite of int (* Lang.load_items-style [types] write, then [touch] *)
  | Mtouch

let memo_mutations_gen =
  let open QCheck.Gen in
  let k = int_bound 10_000 in
  list_size (int_range 1 5)
    (frequency
       [ (3, map2 (fun c t -> Mmodel (c, t)) k k);
         (2, map (fun i -> Mtype i) k);
         (2, map (fun i -> Mwrite i) k);
         (1, return Mtouch) ])

(* The concept and type names a round of checks covers: the world's own,
   a few standard ones, and names nobody declared. *)
let memo_pools (_, concepts, types) =
  ( concepts @ [ "Monoid"; "Container"; "Regular"; "Ghost"; "nope" ],
    types @ [ "int"; "string"; "vector<int>"; "nope" ] )

let apply_mutation reg (concepts, types) step m =
  let pick l i = List.nth l (i mod List.length l) in
  match m with
  | Mmodel (c, t) ->
    Registry.declare_model reg (pick concepts c) [ n (pick types t) ]
  | Mtype t ->
    Registry.declare_type reg (Printf.sprintf "memo%d" step)
      ~assoc:[ ("elem", n (pick types t)) ]
  | Mwrite t -> (
    let name = pick types t in
    match Registry.find_type reg name with
    | None -> Registry.touch reg
    | Some td ->
      reg.Registry.types <-
        ( name,
          { td with
            Registry.td_assoc = ("elem", n "int") :: td.Registry.td_assoc } )
        :: List.remove_assoc name reg.Registry.types;
      Registry.touch reg)
  | Mtouch -> Registry.touch reg

let verdicts reg (concepts, types) =
  List.concat_map
    (fun mode ->
      List.concat_map
        (fun c ->
          List.map
            (fun t ->
              match Check.check ~mode reg c [ n t ] with
              | r -> Ok r
              | exception e -> Error (Printexc.to_string e))
            types)
        concepts)
    [ Check.Structural; Check.Nominal ]

(* A memoised root registry, checked before and after every mutation,
   answers every check as a fresh rebuild of the same declarations,
   whose checks are all computed. *)
let memo_matches_fresh (specs, mutations) =
  let ((items, _, _) as world) = fork_items specs in
  let concepts, types = memo_pools world in
  let types =
    types @ List.init (List.length mutations) (Printf.sprintf "memo%d")
  in
  let pools = (concepts, types) in
  let fresh applied =
    let reg = Gp_standard.Standard.registry () in
    ignore (load reg items);
    List.iteri (fun i m -> apply_mutation reg pools i m) applied;
    verdicts reg pools
  in
  let reg = Gp_standard.Standard.registry () in
  ignore (load reg items);
  let agrees applied =
    let first = verdicts reg pools in
    let memoised = Check.memo_entries reg > 0 in
    let again = verdicts reg pools in
    memoised && first = again && first = fresh applied
  in
  agrees []
  && List.for_all Fun.id
       (List.mapi
          (fun i m ->
            apply_mutation reg pools i m;
            agrees (List.filteri (fun j _ -> j <= i) mutations))
          mutations)

let memo_equiv_prop =
  qtest
    (QCheck.Test.make
       ~name:"memoised check == fresh rebuild (random .gpc, mutations, both \
              modes)"
       ~count:60
       (QCheck.make
          (QCheck.Gen.pair fork_items_gen memo_mutations_gen))
       memo_matches_fresh)

let test_memo_failing_verdict_flips () =
  let reg = Registry.create () in
  Registry.declare_concept reg hashable;
  Registry.declare_type reg "key";
  Registry.declare_op reg "hash" [ n "key" ] (n "int");
  let nominal () =
    Check.models ~mode:Check.Nominal reg "Hashable" [ n "key" ]
  in
  Alcotest.(check bool) "fails without a model" false (nominal ());
  Alcotest.(check int) "memoised" 1 (Check.memo_entries reg);
  Alcotest.(check bool) "memo hit still fails" false (nominal ());
  Registry.declare_model reg "Hashable" [ n "key" ];
  Alcotest.(check bool) "holds once the model is declared" true (nominal ())

(* A memo hit builds nothing: no key tuple, no option, no (entry, hit)
   pair. [Check.check] with a constant mode and prebuilt arguments
   allocates nothing once the verdict is memoised, for a holding and a
   failing verdict alike, and the memo keeps one entry per question. *)
let test_memo_hit_allocates_nothing () =
  let reg = Registry.create () in
  Gp_algebra.Decls.declare reg;
  let args = [ n "int[*]" ] and bogus = [ n "int[-]" ] in
  let ask () =
    ignore (Sys.opaque_identity (Check.check ~mode:Check.Nominal reg "Monoid" args));
    ignore (Sys.opaque_identity (Check.check ~mode:Check.Nominal reg "Group" args));
    ignore (Sys.opaque_identity (Check.check reg "Semigroup" bogus))
  in
  ask ();
  let entries = Check.memo_entries reg in
  let m0 = Gc.minor_words () in
  for _ = 1 to 1000 do
    ask ()
  done;
  let words = (Gc.minor_words () -. m0) /. 3000.0 in
  Alcotest.(check bool)
    (Printf.sprintf "0 words per memo hit (measured %.3f)" words)
    true (words < 0.01);
  Alcotest.(check int) "hits file no entries" entries (Check.memo_entries reg);
  Alcotest.(check bool) "verdicts unchanged" true
    (Check.models ~mode:Check.Nominal reg "Monoid" args
    && not (Check.models ~mode:Check.Nominal reg "Group" args))

(* Whether [reg]'s verdict on Semigroup<int[*]> still warns that
   associativity is asserted but not proved. *)
let assoc_warned reg =
  List.exists
    (function
      | Check.Axiom_asserted_not_proved { axiom = "associativity"; _ } -> true
      | _ -> false)
    (Check.check reg "Semigroup" [ n "int[*]" ]).Check.rep_warnings

let certify_assoc reg =
  Registry.certify_axiom reg ~concept:"Semigroup" ~axiom:"associativity"
    ~args:[ n "int[*]" ]

(* A certification is a declaration: it moves the generation, so it
   invalidates the memoised verdict like any other. *)
let test_memo_certification () =
  let reg = Registry.create () in
  Gp_algebra.Decls.declare reg;
  Alcotest.(check bool) "warned before" true (assoc_warned reg);
  Alcotest.(check bool) "memo hit still warns" true (assoc_warned reg);
  let g = Registry.generation reg in
  certify_assoc reg;
  Alcotest.(check bool) "certifying moves the generation" true
    (Registry.generation reg > g);
  Alcotest.(check bool) "certification clears the memoised warning" false
    (assoc_warned reg);
  let g = Registry.generation reg in
  certify_assoc reg;
  Alcotest.(check int) "certifying again declares nothing" g
    (Registry.generation reg)

(* A certification belongs to the registry it is declared in: another
   registry's verdict, memoised or computed afresh, does not move. *)
let test_certification_per_registry () =
  let mine = Registry.create () and other = Registry.create () in
  Gp_algebra.Decls.declare mine;
  Gp_algebra.Decls.declare other;
  Alcotest.(check bool) "other warns" true (assoc_warned other);
  certify_assoc mine;
  Alcotest.(check bool) "certified where declared" false (assoc_warned mine);
  Alcotest.(check bool) "other's memoised verdict unchanged" true
    (assoc_warned other);
  Registry.touch other;
  Alcotest.(check bool) "other's fresh verdict unchanged" true
    (assoc_warned other);
  Alcotest.(check bool) "other holds no certification" false
    (Registry.axiom_certified other ~concept:"Semigroup"
       ~axiom:"associativity" ~args:[ n "int[*]" ])

(* A fork shares the certifications its parent made before the fork, as
   it shares the parent's models; one made in the parent afterwards
   stays the parent's. *)
let test_fork_certifications () =
  let parent = Registry.create () in
  Gp_algebra.Decls.declare parent;
  let before = Registry.fork parent in
  Alcotest.(check bool) "fork warns" true (assoc_warned before);
  certify_assoc parent;
  let after = Registry.fork parent in
  Alcotest.(check bool) "parent certified" false (assoc_warned parent);
  Alcotest.(check bool) "fork made before keeps its warning" true
    (assoc_warned before);
  Alcotest.(check bool) "fork made after does not warn" false
    (assoc_warned after);
  certify_assoc before;
  Alcotest.(check bool) "a fork certifies for itself" false
    (assoc_warned before)

let test_memo_bounded () =
  let reg = Gp_standard.Standard.registry () in
  let peak = ref 0 in
  for i = 1 to 10_000 do
    let r = Check.check reg "Monoid" [ n (Printf.sprintf "unknown%d" i) ] in
    assert (not (Check.ok r));
    peak := max !peak (Check.memo_entries reg)
  done;
  Alcotest.(check bool) "memo used" true (!peak > 0);
  Alcotest.(check bool) "memo within its cap" true
    (!peak <= Check.memo_capacity)

(* Memo hits are invisible to telemetry: the same queries, repeated on a
   root registry and on a fork of it (each with its own memo), record
   the same spans with the same outcome, failure, warning and memo-hit
   attributes, and hits + computed checks = checks. *)
let test_memo_telemetry () =
  let module Tel = Gp_telemetry.Tel in
  let module Trace = Gp_telemetry.Trace in
  let queries =
    List.concat_map
      (fun c -> List.map (fun t -> (c, [ n t ])) [ "int"; "string"; "nope" ])
      [ "Monoid"; "Regular"; "Container"; "nope" ]
  in
  let run reg =
    Tel.with_installed (fun sink ->
        for _ = 1 to 3 do
          List.iter (fun (c, args) -> ignore (Check.check reg c args)) queries
        done;
        let spans =
          List.filter
            (fun sp -> String.equal sp.Trace.sp_name "concepts.check")
            (Trace.spans sink.Tel.trace)
        in
        let attr k sp = List.assoc k sp.Trace.sp_attrs in
        let sum k =
          List.fold_left (fun a sp -> a + int_of_string (attr k sp)) 0 spans
        in
        ( List.length spans,
          List.map (attr "outcome") spans,
          sum "failures",
          sum "warnings",
          List.length (List.filter (fun sp -> attr "memo_hit" sp = "true") spans)
        ))
  in
  let root = Gp_standard.Standard.registry () in
  let spans, outcomes, failures, warnings, hits = run root in
  let fspans, foutcomes, ffailures, fwarnings, fhits = run (Registry.fork root) in
  let total = 3 * List.length queries in
  Alcotest.(check int) "one span per check" total spans;
  Alcotest.(check int) "same spans" fspans spans;
  Alcotest.(check (list string)) "same outcomes" foutcomes outcomes;
  Alcotest.(check bool) "some checks fail" true (failures > 0);
  Alcotest.(check int) "same failures" ffailures failures;
  Alcotest.(check int) "same warnings" fwarnings warnings;
  Alcotest.(check int) "a fork hits as its root does" hits fhits;
  Alcotest.(check int) "hits + computed = checks"
    (total - List.length queries)
    hits

(* A fork's memo survives declarations into its parent made after the
   fork, and stays right: the fork's lists are its own, so its memoised
   verdicts still equal those of a fresh standard world loaded with the
   same items, computed without a memo hit. *)
let fork_memo_after_parent_moves specs =
  let ((items, _, _) as world) = fork_items specs in
  let pools = memo_pools world in
  let parent = Gp_standard.Standard.registry () in
  let child = Registry.fork parent in
  ignore (load child items);
  let before = verdicts child pools in
  let memoised = Check.memo_entries child in
  Registry.declare_concept parent
    (Concept.make ~params:[ "T" ] ~refines:[ ("Monoid", [ Ctype.Var "T" ]) ]
       "Ghost" []);
  Registry.declare_model parent "Monoid" [ n "nope" ];
  Registry.declare_type parent "nope";
  Registry.declare_op parent "op" [ n "nope"; n "nope" ] (n "nope");
  let after = verdicts child pools in
  let fresh = Gp_standard.Standard.registry () in
  ignore (load fresh items);
  memoised > 0
  && Check.memo_entries child = memoised
  && after = before
  && after = verdicts fresh pools

let fork_memo_prop =
  qtest
    (QCheck.Test.make
       ~name:"fork memo == fresh compute after the parent moves" ~count:60
       (QCheck.make fork_items_gen)
       fork_memo_after_parent_moves)

(* Building the standard world asks no lookup between declarations, so
   its index is built once, by the first lookup after it. *)
let test_world_indexed_once () =
  let rebuilds0 = Registry.index_rebuilds () in
  let reg = Gp_standard.Standard.registry () in
  ignore (Registry.find_concept reg "Monoid");
  let rebuilds = Registry.index_rebuilds () - rebuilds0 in
  Alcotest.(check bool)
    (Printf.sprintf "%d rebuilds <= 2" rebuilds)
    true (rebuilds <= 2)

(* Each root keeps its own index and memo, so checking more roots never
   displaces the first one's: its verdict is still memoised, and a check
   that misses the memo still finds the index current. *)
let test_roots_keep_derived_state () =
  let args = [ n "int[+]" ] in
  let roots = List.init 9 (fun _ -> Gp_standard.Standard.registry ()) in
  List.iter (fun reg -> ignore (Check.check reg "Monoid" args)) roots;
  let first = List.hd roots in
  Alcotest.(check bool) "first root's verdict still memoised" true
    (Check.memo_entries first > 0);
  let rebuilds0 = Registry.index_rebuilds () in
  ignore (Check.check first "Monoid" args);
  ignore (Check.check first "Regular" [ n "int" ]);
  Alcotest.(check int) "first root's index still current" 0
    (Registry.index_rebuilds () - rebuilds0)

(* Nothing outside a registry holds on to it: once dropped, an indexed
   and checked root is collected along with its index and memo. *)
let[@inline never] indexed_and_checked weak =
  let reg = Gp_standard.Standard.registry () in
  ignore (Registry.find_concept reg "Monoid");
  ignore (Check.check reg "Monoid" [ n "int[+]" ]);
  Weak.set weak 0 (Some reg)

let test_dropped_root_collected () =
  let weak = Weak.create 1 in
  indexed_and_checked weak;
  Gc.full_major ();
  Alcotest.(check bool) "collected" false (Weak.check weak 0)

(* ------------------------------------------------------------------ *)
(* Archetypes                                                          *)
(* ------------------------------------------------------------------ *)

let test_archetype_models_its_concept () =
  let reg = graph_world () in
  let inst = Archetype.instantiate reg "IncidenceGraph" in
  Alcotest.(check bool) "archetype models IncidenceGraph" true
    (Check.models reg "IncidenceGraph" inst.Archetype.arch_args)

let test_archetype_minimal () =
  let reg = graph_world () in
  let inst = Archetype.instantiate reg "GraphEdge" in
  (* the GraphEdge archetype must NOT model IncidenceGraph *)
  Alcotest.(check bool) "GraphEdge archetype lacks IncidenceGraph" false
    (Check.models reg "IncidenceGraph" inst.Archetype.arch_args)

let test_archetype_implies () =
  let reg = Registry.create () in
  Gp_sequence.Decls.declare reg;
  Alcotest.(check bool) "RandomAccess implies Forward" true
    (Archetype.implies reg ~declared:"RandomAccessIterator"
       ~used:"ForwardIterator");
  Alcotest.(check bool) "Input does not imply Forward" false
    (Archetype.implies reg ~declared:"InputIterator" ~used:"ForwardIterator")

(* ------------------------------------------------------------------ *)
(* Overloading                                                          *)
(* ------------------------------------------------------------------ *)

let test_overload_most_refined_wins () =
  let reg = Registry.create () in
  Gp_sequence.Decls.declare reg;
  let g = Gp_sequence.Decls.sort_generic () in
  let res = Overload.resolve reg g [ n "vector<int>::iterator" ] in
  (match res with
  | Overload.Selected (c, losers) ->
    Alcotest.(check string) "picks introsort" "introsort (random access)"
      c.Overload.cand_name;
    Alcotest.(check int) "forward candidate also matched" 1
      (List.length losers)
  | _ -> Alcotest.fail "expected Selected");
  let res = Overload.resolve reg g [ n "list<int>::iterator" ] in
  match res with
  | Overload.Selected (c, _) ->
    Alcotest.(check string) "picks mergesort for list"
      "mergesort (forward)" c.Overload.cand_name
  | _ -> Alcotest.fail "expected Selected for list"

let test_overload_no_match_reports () =
  let reg = Registry.create () in
  Gp_sequence.Decls.declare reg;
  let g = Gp_sequence.Decls.sort_generic () in
  match Overload.resolve reg g [ n "istream<int>::iterator" ] with
  | Overload.No_match reports ->
    Alcotest.(check int) "both candidates reported" 2 (List.length reports)
  | _ -> Alcotest.fail "input iterator must not satisfy sort"

let test_overload_ambiguity_detected () =
  let reg = Registry.create () in
  Registry.declare_concept reg
    (Concept.make ~params:[ "T" ] "A" [ Concept.axiom "t" "true" ]);
  Registry.declare_concept reg
    (Concept.make ~params:[ "T" ] "B" [ Concept.axiom "t" "true" ]);
  Registry.declare_type reg "x";
  Registry.declare_model reg "A" [ n "x" ];
  Registry.declare_model reg "B" [ n "x" ];
  let g = Overload.create "f" in
  Overload.add_candidate g ~name:"via A" ~guard:"A" (fun _ -> Overload.Unit);
  Overload.add_candidate g ~name:"via B" ~guard:"B" (fun _ -> Overload.Unit);
  match Overload.resolve reg g [ n "x" ] with
  | Overload.Ambiguous cs -> Alcotest.(check int) "two" 2 (List.length cs)
  | _ -> Alcotest.fail "expected ambiguity between unrelated concepts"

(* ------------------------------------------------------------------ *)
(* Taxonomy                                                            *)
(* ------------------------------------------------------------------ *)

let mini_taxonomy () =
  let t = Taxonomy.create "sorting" in
  Taxonomy.add_node t "sort" ~attributes:[ ("problem", "sorting") ];
  Taxonomy.add_node t "comparison_sort" ~parents:[ "sort" ]
    ~attributes:[ ("method", "comparison") ];
  Taxonomy.add_node t "ra_sort" ~parents:[ "comparison_sort" ]
    ~attributes:[ ("access", "random") ];
  Taxonomy.add_node t "fwd_sort" ~parents:[ "comparison_sort" ]
    ~attributes:[ ("access", "forward") ];
  Taxonomy.add_entry t ~name:"introsort" ~node:"ra_sort"
    ~costs:[ ("comparisons", Complexity.n_log_n "n") ];
  Taxonomy.add_entry t ~name:"mergesort" ~node:"fwd_sort"
    ~costs:[ ("comparisons", Complexity.n_log_n "n") ];
  Taxonomy.add_entry t ~name:"bubblesort" ~node:"ra_sort"
    ~costs:[ ("comparisons", Complexity.quadratic "n") ];
  t

let test_taxonomy_refines_and_attributes () =
  let t = mini_taxonomy () in
  Alcotest.(check bool) "ra refines sort" true
    (Taxonomy.refines t "ra_sort" "sort");
  Alcotest.(check bool) "sort not refines ra" false
    (Taxonomy.refines t "sort" "ra_sort");
  let attrs = Taxonomy.attributes t "ra_sort" in
  Alcotest.(check (option string)) "inherits problem" (Some "sorting")
    (List.assoc_opt "problem" attrs);
  Alcotest.(check (option string)) "own access" (Some "random")
    (List.assoc_opt "access" attrs)

let test_taxonomy_pick () =
  let t = mini_taxonomy () in
  let best =
    Taxonomy.pick t
      ~requirements:[ ("access", "random") ]
      ~measure:"comparisons"
  in
  Alcotest.(check (list string)) "picks introsort over bubblesort"
    [ "introsort" ]
    (List.map (fun e -> e.Taxonomy.en_name) best)

let test_taxonomy_gaps () =
  let t = mini_taxonomy () in
  Taxonomy.add_node t "parallel_sort" ~parents:[ "comparison_sort" ]
    ~attributes:[ ("access", "parallel") ];
  let gaps = Taxonomy.gaps t in
  Alcotest.(check (list string)) "parallel_sort is a gap" [ "parallel_sort" ]
    gaps

(* Mutually recursive concepts (Container <-> Iterator style) must not
   loop the checker; the visited set assumes on cycles. *)
let test_cyclic_concepts () =
  let reg = Registry.create () in
  Registry.declare_concept reg
    (Concept.make ~params:[ "C" ] "Cont"
       [
         Concept.assoc_type "iter"
           ~constraints:
             [ Concept.Models ("It", [ Ctype.Assoc (v "C", "iter") ]) ];
       ]);
  Registry.declare_concept reg
    (Concept.make ~params:[ "I" ] "It"
       [
         Concept.assoc_type "owner"
           ~constraints:
             [ Concept.Models ("Cont", [ Ctype.Assoc (v "I", "owner") ]) ];
       ]);
  Registry.declare_type reg "c" ~assoc:[ ("iter", n "i") ];
  Registry.declare_type reg "i" ~assoc:[ ("owner", n "c") ];
  Alcotest.(check bool) "cyclic check terminates and passes" true
    (Check.models reg "Cont" [ n "c" ]);
  (* and the propagation closure terminates (bounded by max_depth, since
     each level names a syntactically new projection chain) *)
  let obs = Propagate.closure ~max_depth:8 reg "Cont" [ n "c" ] in
  Alcotest.(check bool) "finite closure" true (List.length obs <= 2 * 9)

(* ------------------------------------------------------------------ *)
(* Emulation translation (Section 2.2)                                 *)
(* ------------------------------------------------------------------ *)

let test_emulation_flattens_incidence_graph () =
  let reg = graph_world () in
  let con = Option.get (Registry.find_concept reg "IncidenceGraph") in
  let flat = Emulation.translate reg con in
  (* Graph + Vertex + Edge + OutEdgeIter: the paper's flattened form *)
  Alcotest.(check int) "four parameters" 4 (List.length flat.Emulation.fi_params);
  Alcotest.(check bool) "includes Vertex param" true
    (List.mem "Vertex" flat.Emulation.fi_params);
  Alcotest.(check bool) "includes Edge param" true
    (List.mem "Edge" flat.Emulation.fi_params);
  (* the where clauses restate the nested model constraints *)
  Alcotest.(check bool) "where clause mentions GraphEdge" true
    (List.exists (fun w -> contains w "GraphEdge") flat.Emulation.fi_where);
  (* signatures now reference the parameters, not projections *)
  let rendered = Fmt.str "%a" Emulation.pp flat in
  Alcotest.(check bool) "no projections left in out_edges" false
    (contains rendered "Graph.vertex_type")

let test_emulation_blowup () =
  let reg = graph_world () in
  let con = Option.get (Registry.find_concept reg "IncidenceGraph") in
  let original, flattened = Emulation.blowup reg con in
  Alcotest.(check int) "original 1" 1 original;
  Alcotest.(check bool) "more than doubled (paper's study)" true
    (flattened > 2 * original)

(* ------------------------------------------------------------------ *)
(* Overload ablation                                                   *)
(* ------------------------------------------------------------------ *)

let test_first_match_is_worse () =
  let reg = Registry.create () in
  Gp_sequence.Decls.declare reg;
  let g = Gp_sequence.Decls.sort_generic () in
  let args = [ n "vector<int>::iterator" ] in
  (match Overload.resolve reg g args with
  | Overload.Selected (c, _) ->
    Alcotest.(check string) "ranked picks introsort"
      "introsort (random access)" c.Overload.cand_name
  | _ -> Alcotest.fail "expected Selected");
  match Overload.resolve_first_match reg g args with
  | Overload.Selected (c, _) ->
    Alcotest.(check string) "first-match picks the general candidate"
      "mergesort (forward)" c.Overload.cand_name
  | _ -> Alcotest.fail "expected Selected (first match)"

(* ------------------------------------------------------------------ *)
(* Complexity algebra laws                                             *)
(* ------------------------------------------------------------------ *)

(* Bounds form an idempotent commutative semiring under (add, mul) with
   absorption tying add to the leq order; random monomial sums probe the
   laws the hand-picked algebra cases above cannot. *)
let complexity_arb =
  let open QCheck in
  let monomial =
    map
      (fun (v, p, l) ->
        if p = 0 && l = 0 then Complexity.constant
        else Complexity.poly_log v ~poly:p ~log:l)
      (triple (oneofl [ "n"; "m"; "k" ]) (int_range 0 3) (int_range 0 2))
  in
  set_print Complexity.to_string
    (map
       (fun ms -> List.fold_left Complexity.add Complexity.constant ms)
       (list_of_size Gen.(1 -- 3) monomial))

let complexity_law3 name law =
  QCheck.Test.make ~count:500 ~name
    (QCheck.triple complexity_arb complexity_arb complexity_arb)
    (fun (a, b, c) -> law a b c)

let complexity_laws =
  let open Complexity in
  [ complexity_law3 "add commutative" (fun a b _ ->
        equal (add a b) (add b a));
    complexity_law3 "add associative" (fun a b c ->
        equal (add a (add b c)) (add (add a b) c));
    complexity_law3 "add idempotent" (fun a _ _ -> equal (add a a) a);
    complexity_law3 "absorption: leq a b means a+b = b" (fun a b _ ->
        QCheck.assume (leq a b);
        equal (add a b) b);
    complexity_law3 "a leq a+b" (fun a b _ -> leq a (add a b));
    complexity_law3 "mul commutative" (fun a b _ ->
        equal (mul a b) (mul b a));
    complexity_law3 "mul associative" (fun a b c ->
        equal (mul a (mul b c)) (mul (mul a b) c));
    complexity_law3 "mul distributes over add" (fun a b c ->
        equal (mul a (add b c)) (add (mul a b) (mul a c))) ]

(* leq is a partial order (up to equal) and compare_growth is its
   packaging — the properties the complexity-verification harness's
   verdicts lean on. *)
let complexity_order_laws =
  let open Complexity in
  [ complexity_law3 "leq reflexive" (fun a _ _ -> leq a a);
    complexity_law3 "leq transitive" (fun a b c ->
        QCheck.assume (leq a b && leq b c);
        leq a c);
    complexity_law3 "leq antisymmetric up to equal" (fun a b _ ->
        QCheck.assume (leq a b && leq b a);
        equal a b);
    complexity_law3 "compare_growth consistent with leq" (fun a b _ ->
        match compare_growth a b with
        | Some 0 -> leq a b && leq b a
        | Some (-1) -> leq a b && not (leq b a)
        | Some 1 -> leq b a && not (leq a b)
        | Some _ -> false
        | None -> (not (leq a b)) && not (leq b a));
    complexity_law3 "equal bounds print identically" (fun a b _ ->
        QCheck.assume (equal a b);
        String.equal (to_string a) (to_string b));
    (* eval respects the order pointwise once sizes are >= 2 (below 2
       the log clamp flattens log factors on purpose) *)
    complexity_law3 "leq implies pointwise eval <= at size 64" (fun a b _ ->
        QCheck.assume (leq a b);
        let env _ = 64.0 in
        eval a ~env <= (3.0 *. eval b ~env)) ]

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "gp_concepts"
    [
      ( "ctype",
        [
          Alcotest.test_case "subst" `Quick test_ctype_subst;
          Alcotest.test_case "vars" `Quick test_ctype_vars;
          Alcotest.test_case "equal" `Quick test_ctype_equal;
        ] );
      ( "complexity",
        [
          Alcotest.test_case "order" `Quick test_complexity_order;
          Alcotest.test_case "algebra" `Quick test_complexity_algebra;
          Alcotest.test_case "pp" `Quick test_complexity_pp;
          Alcotest.test_case "pp canonical order" `Quick
            test_complexity_pp_canonical;
          Alcotest.test_case "eval" `Quick test_complexity_eval;
          Alcotest.test_case "basis" `Quick test_complexity_basis;
        ]
        @ List.map qtest complexity_laws
        @ List.map qtest complexity_order_laws );
      ( "check",
        [
          Alcotest.test_case "pass" `Quick test_check_pass;
          Alcotest.test_case "missing op" `Quick test_check_missing_op;
          Alcotest.test_case "return mismatch" `Quick
            test_check_return_mismatch;
          Alcotest.test_case "refinement failure" `Quick
            test_check_refinement_failure_is_structured;
          Alcotest.test_case "assoc + same-type" `Quick
            test_check_assoc_and_same_type;
          Alcotest.test_case "axiom warnings" `Quick test_check_axiom_warnings;
          Alcotest.test_case "certified axiom" `Quick
            test_certified_axiom_clears_warning;
          Alcotest.test_case "nominal mode" `Quick
            test_nominal_mode_requires_declaration;
          Alcotest.test_case "complexity guarantee" `Quick
            test_complexity_guarantee_checked;
        ] );
      ( "graph concepts",
        [
          Alcotest.test_case "fig1+fig2" `Quick test_fig1_fig2;
          Alcotest.test_case "broken graph diagnosed" `Quick
            test_fig2_broken_graph;
        ] );
      ( "propagation",
        [
          Alcotest.test_case "closure" `Quick test_propagation_closure;
          Alcotest.test_case "idempotent" `Quick test_propagation_idempotent;
          Alcotest.test_case "tower" `Quick
            test_propagation_exponential_tower;
        ] );
      ("registry index",
        [ registry_equiv_prop; closure_equiv_prop;
          telemetry_transparent_prop;
          Alcotest.test_case "standard world indexed once" `Quick
            test_world_indexed_once ]);
      ( "registry fork",
        [ fork_random_world_prop; fork_equiv_prop;
          Alcotest.test_case "fork of a fork extends a closure" `Quick
            test_fork_extends_parent_closure;
          Alcotest.test_case "parent untouched by forks" `Quick
            test_fork_leaves_parent;
          Alcotest.test_case "parent mutated after fork" `Quick
            test_fork_of_mutated_parent ] );
      ( "verdict memo",
        [ memo_equiv_prop;
          Alcotest.test_case "failing verdict flips on declaration" `Quick
            test_memo_failing_verdict_flips;
          Alcotest.test_case "certification invalidates" `Quick
            test_memo_certification;
          Alcotest.test_case "certification is per registry" `Quick
            test_certification_per_registry;
          Alcotest.test_case "forks share earlier certifications" `Quick
            test_fork_certifications;
          Alcotest.test_case "bounded by its cap" `Quick test_memo_bounded;
          Alcotest.test_case "a hit allocates nothing" `Quick
            test_memo_hit_allocates_nothing;
          Alcotest.test_case "telemetry unchanged by hits" `Quick
            test_memo_telemetry;
          Alcotest.test_case "roots keep their own index and memo" `Quick
            test_roots_keep_derived_state;
          Alcotest.test_case "a dropped root is collected" `Quick
            test_dropped_root_collected;
          fork_memo_prop ] );
      ( "archetype",
        [
          Alcotest.test_case "models own concept" `Quick
            test_archetype_models_its_concept;
          Alcotest.test_case "minimal" `Quick test_archetype_minimal;
          Alcotest.test_case "implies" `Quick test_archetype_implies;
        ] );
      ( "overload",
        [
          Alcotest.test_case "most refined wins" `Quick
            test_overload_most_refined_wins;
          Alcotest.test_case "no match reports" `Quick
            test_overload_no_match_reports;
          Alcotest.test_case "ambiguity" `Quick
            test_overload_ambiguity_detected;
        ] );
      ( "taxonomy",
        [
          Alcotest.test_case "refines/attributes" `Quick
            test_taxonomy_refines_and_attributes;
          Alcotest.test_case "pick" `Quick test_taxonomy_pick;
          Alcotest.test_case "gaps" `Quick test_taxonomy_gaps;
        ] );
      ( "emulation",
        [
          Alcotest.test_case "cyclic concepts" `Quick test_cyclic_concepts;
          Alcotest.test_case "flattens incidence graph" `Quick
            test_emulation_flattens_incidence_graph;
          Alcotest.test_case "blowup" `Quick test_emulation_blowup;
          Alcotest.test_case "first-match ablation" `Quick
            test_first_match_is_worse;
        ] );
    ]
