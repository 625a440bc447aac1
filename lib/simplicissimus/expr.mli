(** The typed expression IR Simplicissimus rewrites.

    Every node carries its carrier type; operations are surface symbols
    ("+", "*", "&&", ".", "neg", "inv", ...). [Ident (ty, op)] is a
    symbolic identity element — matrices resolve theirs to a concrete
    identity only at evaluation, when the dimension is known. *)

type value = Gp_algebra.Decls.value =
  | VInt of int
  | VFloat of float
  | VBool of bool
  | VString of string
  | VRat of Gp_algebra.Rational.t
  | VMat of Gp_algebra.Instances.Qmat.t

type t =
  | Var of string * string  (** name, carrier type *)
  | Lit of value
  | Ident of string * string  (** symbolic identity of (type, op) *)
  | Op of string * string * t list  (** op symbol, result type, operands *)

val value_type : value -> string
val type_of : t -> string
val value_equal : value -> value -> bool
val equal : t -> t -> bool

val pp_value : Format.formatter -> value -> unit
val pp : Format.formatter -> t -> unit
val to_string : t -> string

val size : t -> int
(** Node count. *)

val op_count : t -> int
(** Operation-node count — the work measure reduced by rewriting. *)

(** {2 Builders} *)

val ivar : string -> t
val fvar : string -> t
val bvar : string -> t
val svar : string -> t
val qvar : string -> t
val mvar : string -> t
val int : int -> t
val float : float -> t
val bool : bool -> t
val string : string -> t
val rat : Gp_algebra.Rational.t -> t
val binop : string -> t -> t -> t
val unop : string -> t -> t
