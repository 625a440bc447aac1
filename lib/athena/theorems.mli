(** Generic proofs: written once, checked against any operator mapping.

    Each theorem is (goal, deduction); the deduction is {e checked},
    never searched for. Instantiating the mapping reuses the identical
    proof skeleton per model — experiment C7's amortisation. *)

type theorem = {
  goal : Logic.prop;
  proof : Deduction.t;
  thm_name : string;
}

val verify : axioms:Theory.axiom list -> theorem -> Deduction.verdict

(** {2 Fig. 6: Strict Weak Order} *)

val swo_e_reflexive : lt:string -> theorem
(** E is reflexive — derived from irreflexivity, as the Fig. 6 caption
    states. *)

val swo_e_symmetric : lt:string -> theorem
val swo_e_transitive : lt:string -> theorem

val swo_asymmetric : lt:string -> theorem
(** [a < b ==> ~(b < a)], via suppose-absurd from transitivity and
    irreflexivity. *)

(** {2 Monoid and group theorems} *)

val monoid_right_identity : Theory.mapping -> theorem
val monoid_identity_unique : Theory.mapping -> theorem

val group_right_inverse : Theory.mapping -> theorem
(** The classic equational derivation of [forall x. op(x, inv x) = e]
    from the minimal presentation — certifying the Fig. 5 Group rule
    from first principles. *)

val group_right_identity : Theory.mapping -> theorem
val group_double_inverse : Theory.mapping -> theorem

val group_left_cancellation : Theory.mapping -> theorem
(** [a+b = a+c ==> b = c] from the minimal presentation. *)

(** {2 Ring theorems} *)

val ring_mul_zero : Theory.ring_mapping -> theorem
(** [forall x. x*0 = 0] via distributivity and additive cancellation —
    certifying the Ring rewrite rule. *)

val ring_zero_mul : Theory.ring_mapping -> theorem

(** {2 Order-theory morphisms}

    The strict part lt(x,y) := leq(x,y) /\ ~leq(y,x) of a total order is
    a Strict Weak Order: each Fig. 6 axiom, with lt expanded, derived
    from the total-order axioms. Connects the ordering-concepts taxonomy
    (partial / strict weak / total) by checked proof. *)

val strict : leq:string -> Logic.term -> Logic.term -> Logic.prop
(** The strict-part formula. *)

val strict_irreflexive : leq:string -> theorem
val strict_transitive : leq:string -> theorem

val strict_equiv_transitive : leq:string -> theorem
(** Needs totality — incomparability is not transitive in mere partial
    orders. *)

(** {2 Instantiation driver} *)

val check_for_instances :
  theorem:(Theory.mapping -> theorem) ->
  axioms:(Theory.mapping -> Theory.axiom list) ->
  Theory.mapping list ->
  (string * Deduction.verdict) list
(** Check one generic theorem across many instance mappings. *)

(** {2 The proof catalogue} *)

val catalogue :
  (string * (string * (unit -> Theory.axiom list * theorem list)) list) list
(** Theory name → its instances in checking order, each as (instance
    name, a builder of the axioms it is checked against and its
    theorems); the theories are [swo], [group], [monoid], [ring],
    [orders]. The one table behind [gp prove] and the served [prove]
    kind. Applying an instance's builder builds that instance's proofs
    alone. *)

val build_all :
  (string * (unit -> Theory.axiom list * theorem list)) list ->
  (string * Theory.axiom list * theorem list) list
(** Apply every builder of a {!catalogue} entry, in order: each
    instance's name, axioms and theorems. *)
