(** The abstract interpreter: flow-sensitive symbolic execution of
    programs against library specifications, producing the high-level
    diagnostics of paper Sections 3.1–3.2.

    One diagnostic per root cause: after a defective iterator use is
    reported, the iterator's abstract state is poisoned so cascades are
    suppressed. *)

type severity = Error | Warning | Suggestion

type diagnostic = {
  d_severity : severity;
  d_message : string;
  d_where : string;  (** the offending statement's label *)
}

val check : Ast.stmt list -> diagnostic list
(** Execute the program abstractly from the empty state; diagnostics in
    program order, deduplicated. Detects: singular/invalidated/past-end
    dereference and increment, iterator invalidation by container
    mutation (vector vs list semantics), unchecked algorithm results,
    iterator-category violations, the multipass requirement over input
    streams (semantic archetype), single-pass streams traversed twice,
    unverifiable sortedness preconditions, and fires the sorted-range
    optimization suggestion. *)

val errors : diagnostic list -> diagnostic list
val warnings : diagnostic list -> diagnostic list
val suggestions : diagnostic list -> diagnostic list

val pp_diagnostic : Format.formatter -> diagnostic -> unit
val pp_report : Format.formatter -> diagnostic list -> unit
