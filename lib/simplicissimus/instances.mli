(** The surface table: per carrier (type, operation symbol), what the
    rewriter needs beyond the modeling relation — identity literal,
    inverse symbol, athena mapping, proved or asserted axioms — and the
    ring pairings, paired with the registry that answers {!models}. *)

type entry = {
  e_type : string;
  e_op : string;
  e_carrier : Gp_concepts.Ctype.t list;  (** [[Named "ty[op]"]] *)
  e_identity : Expr.value option;  (** concrete identity, if fixed *)
  e_inverse : string option;  (** inverse op symbol *)
  e_axioms_proved : bool;
  e_mapping : Gp_athena.Theory.mapping option;
}

(** A ring ties two carriers on one element type together: (ty, add) an
    abelian group and (ty, mul) a monoid, with annihilation by the
    additive zero available as a checked theorem. *)
type ring_entry = {
  rg_type : string;
  rg_add : string;
  rg_mul : string;
  rg_zero : Expr.value option;
}

type t

val create : Gp_concepts.Registry.t -> t
(** An empty table answering {!models} from the registry. *)

val registry : t -> Gp_concepts.Registry.t

val add :
  t ->
  ?identity:Expr.value ->
  ?inverse:string ->
  ?mapping:Gp_athena.Theory.mapping ->
  ?proved:bool ->
  ty:string ->
  op:string ->
  unit ->
  unit

val find : t -> ty:string -> op:string -> entry option
(** Indexed (ty, op) lookup; when a carrier was declared more than once,
    the most recent declaration wins. *)

val ring_for : t -> ty:string -> op:string -> ring_entry option
(** The ring whose multiplication is (ty, op). *)

val inverse_carriers : t -> ty:string -> op:string -> (string * string) list
(** Carriers [(ty, op')] whose declared inverse operation is [op] — the
    candidates the rewrite engine adds at a node whose
    root symbol is an inverse (so [inv (inv x)] finds its owner without
    scanning the entry list). Insertion order. *)

val is_ring_zero : t -> ty:string -> op:string -> Expr.t -> bool
val ring_zero_expr : t -> ty:string -> op:string -> Expr.t

val models : t -> ty:string -> op:string -> string -> bool
(** [models t ~ty ~op concept], the question every rewrite-rule guard
    asks: {!Gp_concepts.Check.models} in [Nominal] mode on the table's
    registry about the carrier "ty[op]", entry or not. *)

val is_identity : t -> ty:string -> op:string -> Expr.t -> bool
(** Symbolic identities match by construction; literals by value. *)

val identity_expr : t -> ty:string -> op:string -> Expr.t
(** The identity literal, or the symbolic identity [Ident (ty, op)] when
    the carrier has no entry or no fixed literal. *)

val inverse_op : t -> ty:string -> op:string -> string option

val standard : Gp_concepts.Registry.t -> t
(** The surface facts of the ten Fig. 5 instances plus exact rational
    and boolean/bitwise companions — the carriers
    {!Gp_algebra.Decls.declare} declares — over the given registry,
    which should hold those declarations (the standard world does). *)

val entries : t -> entry list
(** All entries in insertion (declaration) order. The returned list is
    memoised: repeated calls between mutations return the {e same} list
    (physical equality), so callers may iterate it freely without
    paying a fresh allocation per call. *)

val rings : t -> ring_entry list
(** All ring structures in insertion order (the linear-scan reference
    oracles in the test suite rebuild {!ring_for} from this). *)
