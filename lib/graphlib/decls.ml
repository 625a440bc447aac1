(* Runtime concept declarations for the graph world: Fig. 1 (Graph Edge)
   and Fig. 2 (Incidence Graph) transcribed into the concept engine, plus
   the refinements used by the dispatch and propagation experiments. *)

open Gp_concepts

let v t = Ctype.Var t
let n name = Ctype.Named name

(* Fig. 1: "Type Edge is a model of Graph Edge if the requirements are
   satisfied": an associated vertex_type and source/target operations. *)
let graph_edge =
  Concept.make ~params:[ "Edge" ] "GraphEdge" ~doc:"Fig. 1"
    [
      Concept.assoc_type "vertex_type";
      Concept.signature "source" [ v "Edge" ]
        (Ctype.Assoc (v "Edge", "vertex_type"));
      Concept.signature "target" [ v "Edge" ]
        (Ctype.Assoc (v "Edge", "vertex_type"));
    ]

(* Fig. 2: associated vertex/edge/out_edge_iterator types; the same-type
   constraint out_edge_iterator::value_type == edge_type; edge_type models
   GraphEdge; the iterator models an iterator concept; out_edges and
   out_degree operations. *)
let incidence_graph =
  Concept.make ~params:[ "Graph" ] "IncidenceGraph" ~doc:"Fig. 2"
    [
      Concept.assoc_type "vertex_type";
      Concept.assoc_type "edge_type"
        ~constraints:
          [ Concept.Models ("GraphEdge", [ Ctype.Assoc (v "Graph", "edge_type") ]);
            Concept.Same_type
              ( Ctype.Assoc (Ctype.Assoc (v "Graph", "edge_type"), "vertex_type"),
                Ctype.Assoc (v "Graph", "vertex_type") );
          ];
      Concept.assoc_type "out_edge_iterator"
        ~constraints:
          [
            Concept.Models
              ( "InputIterator",
                [ Ctype.Assoc (v "Graph", "out_edge_iterator") ] );
            Concept.Same_type
              ( Ctype.Assoc
                  (Ctype.Assoc (v "Graph", "out_edge_iterator"), "value_type"),
                Ctype.Assoc (v "Graph", "edge_type") );
          ];
      Concept.signature "out_edges"
        [ Ctype.Assoc (v "Graph", "vertex_type"); v "Graph" ]
        (Ctype.Assoc (v "Graph", "out_edge_iterator"));
      Concept.signature "out_degree"
        [ Ctype.Assoc (v "Graph", "vertex_type"); v "Graph" ]
        (n "int");
      Concept.complexity "out_edges" Complexity.constant;
    ]

let vertex_list_graph =
  Concept.make ~params:[ "Graph" ] "VertexListGraph"
    ~refines:[ ("IncidenceGraph", [ v "Graph" ]) ]
    [
      Concept.assoc_type "vertex_iterator"
        ~constraints:
          [
            Concept.Models
              ("InputIterator", [ Ctype.Assoc (v "Graph", "vertex_iterator") ]);
            Concept.Same_type
              ( Ctype.Assoc
                  (Ctype.Assoc (v "Graph", "vertex_iterator"), "value_type"),
                Ctype.Assoc (v "Graph", "vertex_type") );
          ];
      Concept.signature "vertices" [ v "Graph" ]
        (Ctype.Assoc (v "Graph", "vertex_iterator"));
      Concept.signature "num_vertices" [ v "Graph" ] (n "int");
    ]

let adjacency_matrix_concept =
  Concept.make ~params:[ "Graph" ] "AdjacencyMatrixGraph"
    ~refines:[ ("VertexListGraph", [ v "Graph" ]) ]
    [
      Concept.signature "edge"
        [ Ctype.Assoc (v "Graph", "vertex_type");
          Ctype.Assoc (v "Graph", "vertex_type"); v "Graph" ]
        (Ctype.Assoc (v "Graph", "edge_type"));
      Concept.complexity "edge" Complexity.constant;
    ]

let weighted_graph =
  Concept.make ~params:[ "Graph" ] "WeightedGraph"
    ~refines:[ ("VertexListGraph", [ v "Graph" ]) ]
    [
      Concept.signature "weight"
        [ v "Graph"; Ctype.Assoc (v "Graph", "edge_type") ]
        (n "float");
    ]

let all_concepts =
  [ graph_edge; incidence_graph; vertex_list_graph; adjacency_matrix_concept;
    weighted_graph ]

(* Declare a concrete graph type with its associated types and ops. *)
let declare_graph_type reg ~name ~with_matrix =
  let edge_t = name ^ "::edge" in
  let iter_t = name ^ "::out_edge_iterator" in
  let viter_t = name ^ "::vertex_iterator" in
  Registry.declare_type reg edge_t ~assoc:[ ("vertex_type", n "vertex") ];
  Registry.declare_type reg iter_t ~assoc:[ ("value_type", n edge_t) ];
  Registry.declare_type reg viter_t ~assoc:[ ("value_type", n "vertex") ];
  Registry.declare_type reg name
    ~assoc:
      [ ("vertex_type", n "vertex"); ("edge_type", n edge_t);
        ("out_edge_iterator", n iter_t); ("vertex_iterator", n viter_t) ];
  Registry.declare_op reg "source" [ n edge_t ] (n "vertex");
  Registry.declare_op reg "target" [ n edge_t ] (n "vertex");
  List.iter
    (fun it ->
      Registry.declare_op reg "deref" [ n it ]
        (match it with
        | t when t = iter_t -> n edge_t
        | _ -> n "vertex");
      Registry.declare_op reg "succ" [ n it ] (n it);
      Registry.declare_op reg "iter_eq" [ n it; n it ] (n "bool");
      Registry.declare_model reg "InputIterator" [ n it ]
        ~axioms:[ "single_pass" ])
    [ iter_t; viter_t ];
  Registry.declare_op reg "out_edges" [ n "vertex"; n name ] (n iter_t);
  Registry.declare_op reg "out_degree" [ n "vertex"; n name ] (n "int");
  Registry.declare_op reg "vertices" [ n name ] (n viter_t);
  Registry.declare_op reg "num_vertices" [ n name ] (n "int");
  Registry.declare_op reg "weight" [ n name; n edge_t ] (n "float");
  Registry.declare_model reg "GraphEdge" [ n edge_t ];
  Registry.declare_model reg "IncidenceGraph" [ n name ]
    ~complexity:[ ("out_edges", Complexity.constant) ];
  Registry.declare_model reg "VertexListGraph" [ n name ];
  Registry.declare_model reg "WeightedGraph" [ n name ];
  if with_matrix then begin
    Registry.declare_op reg "edge" [ n "vertex"; n "vertex"; n name ]
      (n edge_t);
    Registry.declare_model reg "AdjacencyMatrixGraph" [ n name ]
      ~complexity:[ ("edge", Complexity.constant) ]
  end

(* Populate [reg] with the graph world. Requires the iterator concepts from
   Gp_sequence-style declarations or declares a minimal InputIterator if
   absent. *)
let declare reg =
  if not (Registry.has_concept reg "InputIterator") then
    Registry.declare_concept reg
      (Concept.make ~params:[ "I" ] "InputIterator"
         [
           Concept.assoc_type "value_type";
           Concept.signature "deref" [ v "I" ]
             (Ctype.Assoc (v "I", "value_type"));
           Concept.signature "succ" [ v "I" ] (v "I");
           Concept.signature "iter_eq" [ v "I"; v "I" ] (n "bool");
           Concept.axiom "single_pass" ~vars:[ "i" ] "single pass";
         ]);
  List.iter (Registry.declare_concept reg) all_concepts;
  if not (Registry.has_type reg "vertex") then
    Registry.declare_type reg "vertex";
  if not (Registry.has_type reg "int") then Registry.declare_type reg "int";
  declare_graph_type reg ~name:"adjacency_list" ~with_matrix:false;
  declare_graph_type reg ~name:"adjacency_matrix" ~with_matrix:true

(* ------------------------------------------------------------------ *)
(* Concept-dispatched has_edge                                         *)
(* ------------------------------------------------------------------ *)

type Overload.dyn += Bool of bool
type Overload.dyn += List_query of Adj_list.t * int * int
type Overload.dyn += Matrix_query of Adj_matrix.t * int * int

let has_edge_generic () =
  let g = Overload.create "has_edge" in
  Overload.add_candidate g ~name:"scan out-edges (incidence graph)"
    ~guard:"IncidenceGraph" (fun args ->
      match args with
      | [ List_query (gr, u, w) ] ->
        let module L = Algorithms.Edge_lookup_scan (Adj_list.G) in
        Bool (L.has_edge gr u w)
      | [ Matrix_query (gr, u, w) ] ->
        let module L = Algorithms.Edge_lookup_scan (Adj_matrix.G) in
        Bool (L.has_edge gr u w)
      | _ -> invalid_arg "has_edge: expected a graph query");
  Overload.add_candidate g ~name:"direct cell lookup (adjacency matrix)"
    ~guard:"AdjacencyMatrixGraph" (fun args ->
      match args with
      | [ Matrix_query (gr, u, w) ] ->
        let module L = Algorithms.Edge_lookup_direct (Adj_matrix.G) in
        Bool (L.has_edge gr u w)
      | _ -> invalid_arg "has_edge: direct lookup needs a matrix");
  g
