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

val occurs_free : string -> prop -> bool
(** [x] occurs free in the proposition: not bound by an enclosing
    quantifier of that name. One walk, no list of free variables built. *)

val subst : (string * term) list -> prop -> prop
(** Capture-avoiding substitution of terms for free variables. A binder
    that a substituted term mentions is renamed to the first [x'k]
    (k = 1, 2, ...) free in neither its body nor any substituted term, so
    the result depends only on the arguments. *)

val alpha_equal : prop -> prop -> bool
(** Equality up to bound-variable renaming — the equality used for
    assumption-base membership. Two variables match when both are bound
    by binders at the same depth or both are free with the same name; no
    free name, whatever it is spelled, matches a bound one. One walk over
    both propositions, without building copies; [p == q] answers at once. *)

(** {2 Printing and building} *)

val pp : Format.formatter -> prop -> unit

val forall_many : string list -> prop -> prop
