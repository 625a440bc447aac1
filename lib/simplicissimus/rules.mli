(** Concept-based rewrite rules (Fig. 5).

    A rule is a pattern -> template pair guarded by a concept the
    carrier must model. Patterns are nonlinear (the same metavariable
    must match structurally equal subexpressions — needed by
    [x + (-x)]). User rules are library-specific: they fire on a fixed
    carrier type/op instead of a concept guard. *)

type pattern =
  | P_any of string  (** metavariable; nonlinear *)
  | P_identity  (** the carrier's identity element *)
  | P_op of pattern list  (** the carrier's own operation *)
  | P_inverse of pattern  (** the carrier's inverse operation *)
  | P_lit of Expr.value
  | P_exact of string * pattern list  (** a fixed op symbol (user rules) *)
  | P_ring_zero
      (** the additive zero of the ring whose multiplication is the
          carrier *)

type template =
  | T_var of string
  | T_identity
  | T_op of template list
  | T_inverse of template
  | T_lit of Expr.value
  | T_exact of string * template list
  | T_ring_zero

type guard =
  | Concept of string
      (** the carrier (ty, op) must model this concept
          ({!Instances.models}), e.g. ["Monoid"] *)
  | Carrier of string * string
      (** a user rule: fires on this library carrier (type, op) only *)

type t = {
  rule_name : string;
  guard : guard;
  requires_ring : bool;
      (** additionally require a registered ring whose multiplication is
          the carrier *)
  lhs : pattern;
  rhs : template;
}

val make :
  ?requires_ring:bool ->
  name:string ->
  guard:guard ->
  lhs:pattern ->
  rhs:template ->
  unit ->
  t

(** What the root of a rule's LHS can match — the engine's dispatch key:
    rules whose head cannot produce the node's root symbol are never
    tried. *)
type head =
  | Head_exact of string  (** root must be this fixed op symbol *)
  | Head_carrier_op  (** root must be the carrier's own op ([P_op]) *)
  | Head_carrier_inverse
      (** root must be a carrier's inverse op ([P_inverse]) *)
  | Head_any  (** variable-headed pattern: no symbol constraint *)

val head : t -> head

val match_pattern :
  Instances.t ->
  ty:string ->
  op:string ->
  pattern ->
  Expr.t ->
  (string * Expr.t) list option
(** Match against an expression whose carrier is (ty, op); [Some
    bindings] with nonlinear consistency enforced. *)

val instantiate :
  Instances.t ->
  ty:string ->
  op:string ->
  (string * Expr.t) list ->
  template ->
  Expr.t

(** {2 The built-in rules} *)

val right_identity : t
(** Fig. 5 row 1: [x + 0 -> x] for every Monoid carrier. *)

val left_identity : t

val right_inverse : t
(** Fig. 5 row 2: [x + (-x) -> 0] for every Group carrier. *)

val left_inverse : t
val double_inverse : t
val identity_fold : t

val mul_zero_right : t
(** Ring annihilation [x * 0 -> 0], certified by the athena theorem. *)

val mul_zero_left : t

val builtin : t list

val lidia_inverse : t
(** The Section 3.2 user rule: [1.0 / f -> Inverse(f)] on the "bigfloat"
    library type only. *)

val standard : t list
(** {!builtin} plus {!lidia_inverse}: the rule set the service, the CLI,
    the bench and the examples rewrite with. *)
