(** The assumption base: "an associative memory of propositions that
    have been asserted or proved in a proof session ... all proof
    activity centers around it" (paper Section 3.3).

    Membership is up to alpha-equality; the structure is persistent so
    hypothetical reasoning ([Assume]) extends it locally. *)

type t

val empty : t
val mem : Logic.prop -> t -> bool
val insert : Logic.prop -> t -> t
val of_list : Logic.prop list -> t
val exists : (Logic.prop -> bool) -> t -> bool
(** Some proposition of the base satisfies the predicate. *)
