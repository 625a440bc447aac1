(** Concept declarations for the iterator/container world: the STL
    iterator refinement chain with semantic axioms (single-pass,
    multipass) and complexity guarantees, the Container/Sequence
    concepts, concrete iterator/container types as checked models, and
    the concept-dispatched [sort] generic of experiment C1. *)

(** {2 Concepts} *)

val all_concepts : Gp_concepts.Concept.t list
(** The iterator chain, Container, Sequence, FrontInsertionSequence and
    RandomAccessContainer. *)

(** {2 Declarations} *)

val declare : Gp_concepts.Registry.t -> unit
(** The standard world: vector/list/deque/istream over int elements. *)

(** {2 The dispatched sort} *)

type Gp_concepts.Overload.dyn += Int_range of int Iter.t * int Iter.t

val sort_generic : unit -> Gp_concepts.Overload.generic
(** Candidates: mergesort guarded by ForwardIterator, introsort guarded
    by RandomAccessIterator; resolution picks the most refined model. *)
