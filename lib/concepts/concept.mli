(** First-class concepts (paper Section 2).

    A concept is a named set of requirements over one or more type
    parameters: associated types, function signatures / valid
    expressions, semantic constraints (axioms), and complexity
    guarantees. Concepts may {e refine} other concepts, inheriting their
    requirements; types (or type tuples) that satisfy the requirements
    {e model} the concept. Multi-parameter concepts (Section 2.4, Vector
    Space) are supported directly. *)

type signature = {
  op_name : string;
  op_params : Ctype.t list;
  op_return : Ctype.t;
  op_doc : string;
}

type type_constraint =
  | Models of string * Ctype.t list
      (** the instantiated types must model the named concept *)
  | Same_type of Ctype.t * Ctype.t
      (** the two type expressions must resolve to the same ground type *)

type axiom = {
  ax_name : string;
  ax_statement : string;  (** human-readable formal statement *)
  ax_vars : string list;  (** universally quantified object variables *)
}

type complexity_guarantee = {
  cg_op : string;
  cg_bound : Complexity.t;
  cg_amortized : bool;
}

type requirement =
  | Assoc_type of { at_name : string; at_constraints : type_constraint list }
  | Operation of signature
  | Constraint of type_constraint
  | Axiom of axiom
  | Complexity_guarantee of complexity_guarantee

type t = {
  name : string;
  params : string list;
  refines : (string * Ctype.t list) list;
  requirements : requirement list;
  doc : string;
}

val make :
  ?doc:string ->
  ?refines:(string * Ctype.t list) list ->
  params:string list ->
  string ->
  requirement list ->
  t
(** [make ~params name reqs] builds a concept. Raises [Invalid_argument]
    when [params] is empty. *)

(** {2 Requirement constructors} *)

val signature : ?doc:string -> string -> Ctype.t list -> Ctype.t -> requirement
val assoc_type : ?constraints:type_constraint list -> string -> requirement
val axiom : ?vars:string list -> string -> string -> requirement
val complexity : ?amortized:bool -> string -> Complexity.t -> requirement

(** {2 Accessors} *)

val associated_types : t -> string list
val operations : t -> signature list
val axioms : t -> axiom list
val complexity_guarantees : t -> complexity_guarantee list

val is_semantic : t -> bool
(** A {e semantic} concept has axioms or complexity guarantees; a
    {e syntactic} one has only associated types and signatures. *)

(** {2 Printing} *)

val pp_signature : Format.formatter -> signature -> unit
val pp_requirement : Format.formatter -> requirement -> unit
val pp : Format.formatter -> t -> unit
