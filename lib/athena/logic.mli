(** First-order logic with equality — the proposition language of the
    proof checker (paper Section 3.3). *)

type term =
  | Var of string
  | App of string * term list  (** nullary application = constant *)

type prop =
  | True
  | False
  | Atom of string * term list
  | Eq of term * term
  | Not of prop
  | And of prop * prop
  | Or of prop * prop
  | Implies of prop * prop
  | Iff of prop * prop
  | Forall of string * prop
  | Exists of string * prop

val const : string -> term

(** {2 Terms} *)

val term_equal : term -> term -> bool

(** {2 Propositions} *)

val free_vars : string list -> prop -> string list

val subst : (string * term) list -> prop -> prop
(** Capture-avoiding substitution of terms for free variables; binders
    are renamed when a substituted term would be captured. *)

val alpha_equal : prop -> prop -> bool
(** Equality up to bound-variable renaming — the equality used for
    assumption-base membership. *)

(** {2 Printing and building} *)

val pp : Format.formatter -> prop -> unit
val to_string : prop -> string

val forall_many : string list -> prop -> prop
val conj : prop list -> prop
