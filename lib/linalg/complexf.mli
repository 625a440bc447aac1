(** Complex numbers for the mixed-precision experiments (Section 2.4).

    The CLACRM point survives the move from C floats to OCaml doubles:
    complex-times-real costs 2 real multiplications
    ({!mul_real}) versus 4 multiplications + 2 additions for the full
    complex product after promotion. *)

type t

val make : float -> float -> t
val zero : t
val one : t
val i : t
val of_float : float -> t

val re : t -> float
val im : t -> float

val conj : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t

val mul : t -> t -> t
(** Full complex multiply: 4 real multiplications, 2 additions. *)

val mul_real : t -> float -> t
(** Mixed complex-by-real multiply: 2 real multiplications — the
    operation an associated-type Vector Space formulation would
    forbid. *)

val abs : t -> float

val inv : t -> t
(** Raises [Division_by_zero] on zero. *)

val div : t -> t -> t
val equal : t -> t -> bool
val close : ?eps:float -> t -> t -> bool
val pp : Format.formatter -> t -> unit

module Field : Gp_algebra.Sigs.FIELD with type t = t
