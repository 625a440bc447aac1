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

(** {2 Term builders} *)

val ( %. ) : mapping -> Logic.term * Logic.term -> Logic.term
(** [m %. (a, b)] is the application of [m]'s operation. *)

val e_of : mapping -> Logic.term
val inv_of : mapping -> Logic.term -> Logic.term

(** {2 Axioms} *)

type axiom = { ax_name : string; ax_prop : Logic.prop }

val props : axiom list -> Logic.prop list
val find : axiom list -> string -> Logic.prop
(** Raises [Invalid_argument] on an unknown axiom name. *)

(** {2 Axiom statements}

    Grammar: applications [f(t, ...)], constants [f], [=], [<>], [not],
    [and], [or], [->] (loosest, to the right), and one trailing macro
    [where F(x, ...) := body] whose uses expand in place. A name among
    the axiom's variables is a variable, never applied; an operation of
    the concept returning [bool] forms atoms; every other name is a
    symbol. The variables are quantified universally, in order. *)

val of_statement :
  Gp_concepts.Concept.t -> Gp_concepts.Concept.axiom -> Logic.prop
(** Raises {!Gp_concepts.Lex.Error}, positioned in the statement, on one
    outside the grammar (a prose axiom). *)

(** {2 Algebraic theories: chains with [op], [id], [inverse] renamed}

    A theory is a refinement chain of {!Gp_algebra.Decls.chain}, its
    statements parsed once per process on first use. These and
    {!strict_weak_order} keep the axioms of the last instance each was
    asked for, and return that list while the same physical instance is
    asked for again. *)

val semigroup : mapping -> axiom list
val monoid : mapping -> axiom list

val group_minimal : mapping -> axiom list
(** The Group chain without right identity and right inverse, which are
    theorems (see {!Theorems.group_right_inverse}). *)

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
(** [add]'s abelian group as [add_*], [mul]'s monoid as [mul_*], then
    Ring's own axioms. *)

(** {2 Standard instance mappings (the Fig. 5 carriers)} *)

val int_add : mapping
val int_mul : mapping
val int_ring : ring_mapping

val monoid_instances : mapping list
(** [int_mul] and the float, bool [&&], int [&], string and matrix
    products. *)

val group_instances : mapping list
(** [int_add] and the float, rational and matrix products. *)
