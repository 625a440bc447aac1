(** Evaluator for the expression IR — the semantic ground truth:
    rewriting must never change an expression's value (property-tested),
    and the benches time original vs simplified evaluation. *)

exception Type_error of string

val eval :
  ?mat_dim:int -> env:(string * Expr.value) list -> Expr.t -> Expr.value
(** Raises {!Type_error} on unbound variables or unknown operations, and
    whatever the underlying arithmetic raises (e.g. [Division_by_zero],
    [Qmat.Singular]). *)
