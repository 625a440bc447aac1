(** The registry: everything the concept engine knows about a world of
    types — concept definitions, per-type structural descriptions,
    free operations, and declared models.

    Structural information supports ML-signature-style checking; declared
    models support type-class-style nominal conformance (both discussed
    in paper Section 2.1). The checker verifies the structure behind
    every nominal declaration, so a declared model is a checked claim. *)

type type_desc = {
  td_name : string;
  td_assoc : (string * Ctype.t) list;  (** associated-type bindings *)
  td_doc : string;
}

type model = {
  mo_concept : string;
  mo_args : Ctype.t list;
  mo_axioms_asserted : string list;
      (** axiom names the declarer vouches for (or has proved) *)
  mo_complexity : (string * Complexity.t) list;
      (** declared bound per operation *)
  mo_doc : string;
}

type t = {
  mutable concepts : (string * Concept.t) list;
  mutable types : (string * type_desc) list;
  mutable ops : Concept.signature list;
  mutable models : model list;
  mutable refinement_edges : (string * string) list;
  mutable generation : int;
  base : base option;  (** [Some] for a registry made by {!fork} *)
}

and base
(** What a fork extends: its parent, and its own lookup index. *)

val create : unit -> t

val fork : t -> t
(** A child registry in O(1): it starts out sharing the parent's
    declaration lists and generation, so it answers every lookup as the
    parent does. Declarations made in the child go to the child only,
    and its generation continues from the parent's — a fork of the
    standard world plus some declarations is indistinguishable from a
    fresh standard world plus the same declarations, generations
    included.

    The child indexes only its own declarations; lookups that miss fall
    through to the parent's index, so forking and declaring costs the
    size of the declarations, not of the parent. Forks keep their index
    to themselves and never displace a root registry's cached index. If
    the parent is mutated after the fork, the child indexes its lists
    whole instead. *)

val generation : t -> int
(** Monotone counter bumped by every declaration (and by {!touch}).
    Memo caches over registry-dependent queries — e.g.
    {!Propagate.closure} — include it in their keys, so mutating the
    registry invalidates cached answers without any notification
    machinery. *)

val touch : t -> unit
(** Bump {!generation}. Call after mutating the record fields directly
    (as {!Lang.load_items} and {!Archetype} do for associated-type
    refinement) so caches observe the change. *)

exception Duplicate of string

(** {2 Declarations} *)

val declare_concept : t -> Concept.t -> unit
(** Raises {!Duplicate} on a name collision. *)

val declare_type :
  ?doc:string -> ?assoc:(string * Ctype.t) list -> t -> string -> unit

val declare_op : ?doc:string -> t -> string -> Ctype.t list -> Ctype.t -> unit

val declare_model :
  ?doc:string ->
  ?axioms:string list ->
  ?complexity:(string * Complexity.t) list ->
  t ->
  string ->
  Ctype.t list ->
  unit

(** {2 Lookup} *)

val find_concept : t -> string -> Concept.t option
val find_type : t -> string -> type_desc option
val find_model : t -> string -> Ctype.t list -> model option
val concepts : t -> Concept.t list
val models : t -> model list

val resolve : t -> Ctype.t -> Ctype.t option
(** Resolve a type expression to ground normal form by following
    associated-type bindings; [None] when a projection is unbound. *)

val find_ops : t -> string -> Ctype.t list -> Concept.signature list
(** All registered operations matching name and parameter types. Several
    may differ only in return type (e.g. the nullary identity of every
    monoid carrier). *)

val find_op : t -> string -> Ctype.t list -> Concept.signature option

(** {2 Refinement} *)

val refines : t -> string -> string -> bool
(** Reflexive-transitive refinement between concept names. *)

val refinement_depth : t -> string -> int
(** Length of the longest refinement chain below a concept; used for
    most-refined-wins overload resolution. *)
