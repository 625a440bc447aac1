(** Runtime concept declarations for the graph world: Figs. 1 and 2
    transcribed into the engine, concrete graph types as checked models,
    and the concept-dispatched [has_edge] generic. *)

val all_concepts : Gp_concepts.Concept.t list
(** GraphEdge (Fig. 1), IncidenceGraph (Fig. 2, including the
    associated-type and same-type constraints), VertexListGraph,
    AdjacencyMatrixGraph and WeightedGraph. *)

val declare : Gp_concepts.Registry.t -> unit
(** Declares the concepts (and a minimal InputIterator if absent) plus
    the adjacency_list and adjacency_matrix model types. *)

(** {2 The dispatched edge lookup} *)

type Gp_concepts.Overload.dyn += Bool of bool
type Gp_concepts.Overload.dyn += List_query of Adj_list.t * int * int
type Gp_concepts.Overload.dyn += Matrix_query of Adj_matrix.t * int * int

val has_edge_generic : unit -> Gp_concepts.Overload.generic
(** Scan-out-edges guarded by IncidenceGraph; O(1) cell probe guarded by
    AdjacencyMatrixGraph; most-refined wins. *)
