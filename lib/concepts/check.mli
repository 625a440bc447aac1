(** Concept checking with call-site-quality diagnostics.

    Reproduces the paper's Section 2.1 demand: when a type fails a
    concept, the error names the violated requirement of the concept at
    the point of use, never the internals of a generic implementation.

    Two modes: {e structural} (ML-signature style: structure alone
    decides) and {e nominal} (type-class style: a declared model is
    additionally required — necessary to distinguish purely semantic
    refinements such as Forward vs Input iterators). *)

type failure =
  | Unknown_concept of string
  | Unknown_type of Ctype.t
  | Arity_mismatch of { concept : string; expected : int; got : int }
  | Unresolved_type of { ty : Ctype.t; context : string }
  | Missing_assoc_type of { ty : Ctype.t; assoc : string }
  | Missing_operation of { expected : Concept.signature }
  | Return_type_mismatch of { op : string; expected : Ctype.t; found : Ctype.t }
  | Same_type_violated of { left : Ctype.t; right : Ctype.t }
  | Refinement_failed of {
      concept : string;
      args : Ctype.t list;
      causes : failure list;
    }
  | Nested_model_failed of {
      concept : string;
      args : Ctype.t list;
      causes : failure list;
    }
  | Complexity_too_weak of {
      op : string;
      required : Complexity.t;
      declared : Complexity.t;
    }
  | No_model_declared of { concept : string; args : Ctype.t list }

type warning =
  | Axiom_asserted_not_proved of { concept : string; axiom : string }
  | Axiom_not_asserted of { concept : string; axiom : string }
  | No_complexity_declared of { concept : string; op : string }

type report = {
  rep_concept : string;
  rep_args : Ctype.t list;
  rep_failures : failure list;
  rep_warnings : warning list;
}

val ok : report -> bool

type mode = Structural | Nominal

val check : ?mode:mode -> Registry.t -> string -> Ctype.t list -> report
(** [check reg concept args]: do the ground types [args] model
    [concept]? Defaults to {!Structural}.

    An axiom of the concept warns unless the registry certifies it
    ({!Registry.certify_axiom}): {!Axiom_asserted_not_proved} when the
    declared model asserts it, {!Axiom_not_asserted} otherwise.

    The report is memoised per [(concept, args, mode)] in the
    registry's {!Registry.memo} slot, stamped with
    {!Registry.generation} alone: every declaration (an axiom
    certification included) or {!Registry.touch} invalidates it, so a
    repeated check is a table lookup and never a stale verdict. The
    memo lives and dies with its registry. A fork ({!Registry.fork})
    keeps its own memo under the same stamp: its verdicts depend on its
    own declaration lists, which declaring into the parent never
    changes. With telemetry on, a memo hit records the same
    [concepts.check] span as a computed check, with the same
    [outcome], [failures] and [warnings] attributes, and
    [memo_hit=true]. *)

val check_rendered :
  ?mode:mode -> Registry.t -> string -> Ctype.t list -> report * string
(** {!check} together with the report rendered by {!pp_report}. A
    memoised verdict keeps its rendering, so a repeated check renders
    nothing. *)

type answer = ..
(** A client's answer built from one memoised verdict and kept with it,
    the way {!Registry.memo} keeps a client's state with a registry.
    Extensible, so this module need not know the client's types. *)

val check_answer :
  ?mode:mode ->
  Registry.t ->
  string ->
  Ctype.t list ->
  (report -> string -> answer) ->
  answer
(** [check_answer reg concept args make] is {!check_rendered}'s verdict
    as the answer kept with its memo entry: [make report text] builds it
    on first use, and every later check of the same verdict, until the
    memo drops it, returns that same answer. *)

val memo_capacity : int
(** The bound on one registry's memo: a table that reaches it is
    emptied before the next insertion. *)

val memo_entries : Registry.t -> int
(** Verdicts currently memoised for the registry at its current
    generation. *)

val models : ?mode:mode -> Registry.t -> string -> Ctype.t list -> bool

(** {2 Printing} *)

val pp_failure : Format.formatter -> failure -> unit
val pp_warning : Format.formatter -> warning -> unit
val pp_report : Format.formatter -> report -> unit
