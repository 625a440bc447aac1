(** The surface table: per carrier (type, operation symbol), what the
    rewriter needs beyond the modeling relation — identity literal and
    inverse symbol — and the ring pairings, paired with the registry
    that answers {!models}. *)

type entry = {
  e_type : string;
  e_op : string;
  e_carrier : Gp_concepts.Ctype.t list;  (** [[Named "ty[op]"]] *)
  e_identity : Expr.value option;  (** concrete identity, if fixed *)
  e_inverse : string option;  (** inverse op symbol *)
}

type t

val create : Gp_concepts.Registry.t -> t
(** An empty table answering {!models} from the registry. *)

val registry : t -> Gp_concepts.Registry.t

val add :
  t ->
  ?identity:Expr.value ->
  ?inverse:string ->
  ty:string ->
  op:string ->
  unit ->
  unit

val find : t -> ty:string -> op:string -> entry option
(** Indexed (ty, op) lookup; when a carrier was declared more than once,
    the most recent declaration wins. *)

val ring_for : t -> ty:string -> op:string -> Gp_algebra.Decls.ring option
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
(** The surface facts of every carrier and ring of
    {!Gp_algebra.Decls.carriers} and {!Gp_algebra.Decls.rings}, in
    their order, over the given registry, which should hold
    {!Gp_algebra.Decls.declare}'s declarations (the standard world
    does). *)

val entries : t -> entry list
(** All entries in insertion (declaration) order. *)
