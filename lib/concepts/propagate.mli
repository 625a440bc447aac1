(** Constraint propagation (paper Section 2.3).

    Declaring "G models IncidenceGraph" implies every constraint of the
    refined concepts and of the associated types; languages without
    propagation force programmers to restate the full closure at every
    generic function. [closure] computes the implied set; the size
    functions quantify the savings (experiment C3) and the
    associated-type-emulation cost (Section 2.2). *)

type obligation = { ob_concept : string; ob_args : Ctype.t list }

val obligation_equal : obligation -> obligation -> bool

val closure_with :
  ?max_depth:int ->
  lookup:(string -> Concept.t option) ->
  string ->
  Ctype.t list ->
  obligation list
(** The pure core: all obligations implied by [concept<args>], including
    itself, deduplicated, as a function of a concept-lookup function
    alone. Same lookup, same answer — which is what makes closures
    memoisable (gp_service keys its closure cache on
    {!Registry.generation} plus the query). [max_depth] bounds recursion
    through associated types (container/iterator cycles are legal). *)

val closure :
  ?max_depth:int -> Registry.t -> string -> Ctype.t list -> obligation list
(** [closure_with] over [Registry.find_concept reg]. *)

val add_request_key :
  ?max_depth:int -> Buffer.t -> Registry.t -> string -> Ctype.t list -> unit
(** Append the canonical content key for memoising a closure query: it
    encodes the registry generation, the depth bound, and the query.
    Names are length-prefixed and type lists count-prefixed, so distinct
    queries never share a key. *)

val declared_size : int
(** Constraints written {e with} propagation: always 1 (the root). *)

val explicit_size : ?max_depth:int -> Registry.t -> string -> Ctype.t list -> int
(** Constraints a language without propagation makes the programmer
    write: the closure size. *)

val emulation_type_parameters :
  ?max_depth:int -> Registry.t -> string -> Ctype.t list -> int
(** Extra type parameters needed by the "one parameter per associated
    type" emulation (Section 2.2) for one use of the concept. *)

val pp_obligation : Format.formatter -> obligation -> unit
