(** Runtime concept declarations for the algebraic hierarchy: mirrors
    {!Sigs} into a gp_concepts registry so checking, propagation,
    overloading and rewrite guards can reason about "(x, +) models
    Monoid" (Fig. 5). A model is a (type, operation) pair, represented
    in the type language as a carrier named ["elem[op]"] (e.g.
    ["int[+]"]). *)

(** {2 The concept definitions} *)

val semigroup : Gp_concepts.Concept.t
val monoid : Gp_concepts.Concept.t
val group : Gp_concepts.Concept.t
val abelian_group : Gp_concepts.Concept.t
val ring : Gp_concepts.Concept.t
val field : Gp_concepts.Concept.t

val strict_weak_order : Gp_concepts.Concept.t
(** Fig. 6, as a concept with its three axioms. *)

val all_concepts : Gp_concepts.Concept.t list

(** {2 Carrier declarations} *)

val axioms_of_chain : string -> string list

val carrier_name : elem:string -> op:string -> string
(** The registry's name for the carrier (elem, op): ["elem[op]"]. *)

val declare_carrier :
  Gp_concepts.Registry.t -> elem:string -> op:string -> string -> unit
(** [declare_carrier reg ~elem ~op concept]: the carrier type, its
    operations and models of [concept] and every algebraic concept it
    refines, axioms asserted. The algebraic concepts must be declared in
    [reg] already. *)

val declare : Gp_concepts.Registry.t -> unit
(** Declare concepts, element types, carriers with their operations, and
    checked model declarations into the registry. *)
