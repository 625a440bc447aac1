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

(** {2 The standard carriers} *)

val chain : string -> (Gp_concepts.Concept.t * Gp_concepts.Concept.axiom) list
(** The axioms a model of the named concept of {!all_concepts} asserts,
    each with the concept that states it: those of every concept it
    refines, root first, then its own; [[]] for any other name. *)

val axioms_of_chain : string -> string list
(** The names of {!chain}'s axioms. *)

(** A literal of a standard element type: a carrier's identity, and the
    values Simplicissimus expressions carry ([Expr.value]). *)
type value =
  | VInt of int
  | VFloat of float
  | VBool of bool
  | VString of string
  | VRat of Rational.t
  | VMat of Instances.Qmat.t

(** One standard carrier (element type, operation symbol), declared once:
    {!declare} registers it, the surface table and the evaluator read its
    identity and inverse, the instance certifier proves the exact ones. *)
type carrier = {
  c_elem : string;  (** element type, e.g. ["int"] *)
  c_op : string;  (** operation symbol, e.g. ["+"] *)
  c_concept : string;  (** most refined algebraic concept modeled *)
  c_identity : value option;
      (** [None]: symbolic, as a matrix identity depends on the dimension *)
  c_inverse : string option;  (** inverse operation symbol *)
  c_exact : bool;  (** [false]: axioms asserted, never proved (floats) *)
}

val carriers : carrier list
(** The ten Fig. 5 instances plus the exact rational and
    boolean/bitwise companions, in declaration order. *)

(** A ring pairs two {!carriers} on one element type: (elem, add) an
    abelian group, (elem, mul) a monoid; its zero is the additive
    carrier's identity. *)
type ring = { r_elem : string; r_add : string; r_mul : string }

val rings : ring list

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
