(** Theories as first-class values over operator mappings.

    "We simulate type-parameterization simply by parameterizing functions
    and methods by functions that carry operator mappings." A theory is a
    function from a {!mapping} (which concrete symbols play op, e,
    inverse, <, ...) to named axioms; instantiating the same theory for
    different carriers is just a different mapping — the proof-level
    analogue of instantiating a generic algorithm. *)

type mapping = {
  m_name : string;  (** instance label, e.g. "int[+]" *)
  op : string;
  e : string;
  inv : string;
}

val map_name : mapping -> string

(** {2 Term builders} *)

val ( %. ) : mapping -> Logic.term * Logic.term -> Logic.term
(** [m %. (a, b)] is the application of [m]'s operation. *)

val e_of : mapping -> Logic.term
val inv_of : mapping -> Logic.term -> Logic.term

val a : Logic.term
val b : Logic.term
val c : Logic.term

(** {2 Axioms} *)

type axiom = { ax_name : string; ax_prop : Logic.prop }

val axiom : string -> Logic.prop -> axiom
val props : axiom list -> Logic.prop list
val find : axiom list -> string -> Logic.prop
(** Raises [Invalid_argument] on an unknown axiom name. *)

(** {2 Algebraic theories} *)

val semigroup : mapping -> axiom list
val monoid : mapping -> axiom list

val group_minimal : mapping -> axiom list
(** The minimal presentation {associativity, left identity, left
    inverse}; right identity/inverse are theorems (see
    {!Theorems.group_right_inverse}). *)

val group : mapping -> axiom list
val abelian_group : mapping -> axiom list

(** {2 Order theories} *)

val lt_atom : string -> Logic.term -> Logic.term -> Logic.prop

val equiv : string -> Logic.term -> Logic.term -> Logic.prop
(** The induced equivalence E(x,y) := ~(x<y) /\ ~(y<x) of Fig. 6. *)

val strict_weak_order : lt:string -> axiom list
(** The Fig. 6 axioms: irreflexivity, transitivity, transitivity of E. *)

val partial_order : leq:string -> axiom list
val total_order : leq:string -> axiom list

(** {2 Two-operation theories} *)

type ring_mapping = { r_name : string; add : mapping; mul : mapping }

val ring : ring_mapping -> axiom list

(** {2 Standard instance mappings (the Fig. 5 carriers)} *)

val int_add : mapping
val int_mul : mapping
val int_ring : ring_mapping

val monoid_instances : mapping list
(** [int_mul] and the float, bool [&&], int [&], string and matrix
    products. *)

val group_instances : mapping list
(** [int_add] and the float, rational and matrix products. *)
