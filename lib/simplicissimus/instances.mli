(** The instance table: which (carrier type, operation symbol) pairs
    model which algebraic concept — the data behind the "Requirements"
    column of Fig. 5. Rewrite-rule guards query [models]; identities and
    inverse operations come from here too. Each entry records whether
    its axioms are exactly proved or merely asserted (floats). *)

type level = Semigroup | Monoid | Group | Abelian_group

val level_rank : level -> int
val level_at_least : required:level -> level -> bool

type entry = {
  e_type : string;
  e_op : string;
  e_level : level;
  e_identity : Expr.value option;  (** concrete identity, if fixed *)
  e_inverse : string option;  (** inverse op symbol, Group and up *)
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
  rg_mapping : Gp_athena.Theory.ring_mapping option;
}

type t

val create : unit -> t

val add :
  t ->
  ?identity:Expr.value ->
  ?inverse:string ->
  ?mapping:Gp_athena.Theory.mapping ->
  ?proved:bool ->
  ty:string ->
  op:string ->
  level ->
  unit

val find : t -> ty:string -> op:string -> entry option
(** Indexed (ty, op) lookup; when a carrier was declared more than once,
    the most recent declaration wins. *)

val ring_for : t -> ty:string -> op:string -> ring_entry option
(** The ring whose multiplication is (ty, op). *)

val inverse_carriers : t -> ty:string -> op:string -> (string * string) list
(** Carriers [(ty, op')] whose declared inverse operation is [op] — the
    candidates {!Gp_simplicissimus.Engine.carriers} adds at a node whose
    root symbol is an inverse (so [inv (inv x)] finds its owner without
    scanning the entry list). Insertion order. *)

val is_ring_zero : t -> ty:string -> op:string -> Expr.t -> bool
val ring_zero_expr : t -> ty:string -> op:string -> Expr.t

val models : t -> ty:string -> op:string -> required:level -> bool
(** The question every rewrite-rule guard asks. *)

val is_identity : t -> ty:string -> op:string -> Expr.t -> bool
(** Symbolic identities match by construction; literals by value. *)

val identity_expr : t -> ty:string -> op:string -> Expr.t
(** Raises [Invalid_argument] on an unknown carrier. *)

val inverse_op : t -> ty:string -> op:string -> string option

val standard : unit -> t
(** The ten Fig. 5 instances plus exact rational and boolean/bitwise
    companions. *)

val entries : t -> entry list
(** All entries in insertion (declaration) order. The returned list is
    memoised: repeated calls between mutations return the {e same} list
    (physical equality), so callers may iterate it freely without
    paying a fresh allocation per call. *)

val rings : t -> ring_entry list
(** All ring structures in insertion order (the linear-scan reference
    oracles in the test suite rebuild {!ring_for} from this). *)
