(** Exact rational arithmetic — the honest Field instance behind the
    Fig. 5 [r * r^-1 -> 1] row. Values are kept reduced with positive
    denominator. *)

type t

val make : int -> int -> t
(** [make num den]; raises [Division_by_zero] when [den = 0]. *)

val of_int : int -> t
val zero : t
val one : t

val num : t -> int

val equal : t -> t -> bool
val compare : t -> t -> int

val add : t -> t -> t
val neg : t -> t
val sub : t -> t -> t
val mul : t -> t -> t

val inv : t -> t
(** Raises [Division_by_zero] on zero. *)

val div : t -> t -> t
val to_float : t -> float

val pp : Format.formatter -> t -> unit
val to_string : t -> string

module Field : Sigs.FIELD with type t = t
