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

type memo = ..
(** The one slot of derived state a client keeps with a registry
    ({!Check}'s verdict memo). Extensible, so the registry need not know
    the client's types. *)

type t = {
  mutable concepts : (string * Concept.t) list;
  mutable types : (string * type_desc) list;
  mutable ops : Concept.signature list;
  mutable models : model list;
  mutable refinement_edges : (string * string) list;
  mutable axioms_certified : (string * string * Ctype.t list) list;
      (** [(concept, axiom, args)] triples discharged by a checked proof,
          most recent first *)
  mutable generation : int;
  derived : derived;
}
(** The fields are read freely; only this module writes them (tests
    excepted, which build adversarial worlds and then {!touch}). *)

and derived
(** What the registry derives and keeps with itself: its parent (for a
    fork), its lookup index and its {!memo} slot. A dropped registry
    takes all of it along. *)

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
    size of the declarations, not of the parent. If the parent is
    mutated after the fork, the child indexes its lists whole instead:
    declaring into the parent replaces the parent's lists and never the
    child's, so the child's answers depend on its own lists alone. The
    child has its own {!memo} slot, empty at the fork. *)

val generation : t -> int
(** Monotone counter bumped by every declaration (and by {!touch}).
    Caches over registry-dependent queries — {!Propagate.closure}'s
    request keys, the lookup index, and {!Check.check}'s verdict memo —
    are stamped with it, so mutating the registry invalidates cached
    answers without any notification machinery. The index is rebuilt on
    a root's first lookup after the generation moved, and each such
    rebuild counts in {!index_rebuilds}. *)

val index_rebuilds : unit -> int
(** Root index rebuilds so far in this process, over every registry:
    monotone and always counted, so a caller measures a stretch of work
    by the difference of two readings. *)

val touch : t -> unit
(** Bump {!generation}. Every declaration and {!set_assoc} does; call
    it after writing a record field directly, or the lookup index and
    {!Check.check} go on answering from the old declarations. *)

val memo : t -> (unit -> memo) -> memo
(** [memo t make] is [t]'s memo slot, filled by [make ()] on first use.
    A root and a fork each have one; a fork starts empty and never
    reads its parent's. The slot is not stamped: its client checks
    {!generation} itself, which suffices for a fork too (see {!fork}). *)

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

val set_assoc : t -> string -> (string * Ctype.t) list -> unit
(** [set_assoc t name assoc] replaces the associated-type bindings of
    the declared type [name] with [assoc] (the caller merges them with
    the old ones in its own order) and bumps {!generation}. Only the
    list cells in front of [name]'s entry are copied, so a fork's list
    stays an extension of its parent's. Raises [Not_found] if [name] is
    not declared. *)

val certify_axiom :
  t -> concept:string -> axiom:string -> args:Ctype.t list -> unit
(** Declare that the axiom of [concept] holds for the ground [args]
    because a checked proof discharged it (see gp_simplicissimus's
    [Certify]). {!Check} then stops warning that the axiom is asserted
    but not proved. Like every declaration it bumps {!generation}, so
    memoised verdicts see it; a fork shares the certifications made
    before it, never those made in its parent afterwards. Certifying a
    certified axiom again changes nothing. *)

val axiom_certified :
  t -> concept:string -> axiom:string -> args:Ctype.t list -> bool

(** {2 Lookup} *)

val find_concept : t -> string -> Concept.t option
val find_type : t -> string -> type_desc option
val find_model : t -> string -> Ctype.t list -> model option
val concepts : t -> Concept.t list

val has_concept : t -> string -> bool
val has_type : t -> string -> bool
(** [find_concept t name <> None] and [find_type t name <> None],
    answered from the declaration lists rather than the index: a
    declarer that asks between declarations makes no rebuild. *)

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
