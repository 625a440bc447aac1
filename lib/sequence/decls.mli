(** Concept declarations for the iterator/container world: the STL
    iterator refinement chain with semantic axioms (single-pass,
    multipass) and complexity guarantees, the Container/Sequence
    concepts, concrete iterator/container types as checked models, and
    the concept-dispatched [sort] generic of experiment C1. *)

(** {2 Concepts} *)

val input_iterator : Gp_concepts.Concept.t
val output_iterator : Gp_concepts.Concept.t
val forward_iterator : Gp_concepts.Concept.t
val bidirectional_iterator : Gp_concepts.Concept.t
val random_access_iterator : Gp_concepts.Concept.t
val container : Gp_concepts.Concept.t
val sequence : Gp_concepts.Concept.t
val front_insertion_sequence : Gp_concepts.Concept.t
val random_access_container : Gp_concepts.Concept.t
val all_concepts : Gp_concepts.Concept.t list

(** {2 Declarations} *)

val declare_iterator_type :
  Gp_concepts.Registry.t ->
  name:string ->
  elem:string ->
  category:Iter.category ->
  unit
(** Declare an iterator type with the operations and models its category
    implies. *)

val declare_container_type :
  Gp_concepts.Registry.t ->
  name:string ->
  elem:string ->
  iterator:string ->
  concepts:string list ->
  push_back_amortized:bool ->
  unit

val declare : Gp_concepts.Registry.t -> unit
(** The standard world: vector/list/deque/istream over int elements. *)

(** {2 The dispatched sort} *)

type Gp_concepts.Overload.dyn += Int_range of int Iter.t * int Iter.t

val sort_generic : unit -> Gp_concepts.Overload.generic
(** Candidates: mergesort guarded by ForwardIterator, introsort guarded
    by RandomAccessIterator; resolution picks the most refined model. *)
