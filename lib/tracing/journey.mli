(** Cross-node trace assembly: group per-node completed spans by their
    ["trace"] attribute and rebuild each trace's causal tree across the
    cluster. Span ids are cluster-global, so parent references resolve
    across node boundaries; simulated time is globally consistent, so
    interval checks are meaningful across nodes. *)

module Trace = Gp_telemetry.Trace

type tree = int Trace.tree
(** A {!Trace.forest} tree tagged with the node whose ring recorded each
    span; children in start order, ids break ties. *)

type journey = {
  j_trace : int;
  j_roots : tree list;
      (** trees under parentless spans, ordered by
          {!Trace.compare_start} — a well-formed journey has exactly
          one *)
  j_orphans : (int * Trace.span) list;
      (** [(node, span)] whose parent id was never recorded (e.g. the
          message that would have closed the parent was dropped),
          ordered by {!Trace.compare_start} — listed here, never
          silently attached to a root; an orphan's descendants appear
          in no tree *)
  j_spans : int;  (** total spans grouped into this trace *)
}

val trace_attr : Trace.span -> int option
(** The trace id stamped on the span at emission, if any. *)

val assemble : (int * Trace.span list) list -> journey list
(** [(node, spans)] per node in; one journey per distinct trace id out,
    sorted by trace id. Spans without a ["trace"] attribute are
    ignored. Each trace's spans, node-tagged, go through
    {!Trace.forest}; its roots are split into [j_roots] (no parent)
    and [j_orphans] (a parent id absent from the trace). *)

val well_formed : journey -> (unit, string) result
(** Single root, no orphans, and causal nesting: every child starts no
    earlier than its parent, and a {e same-node} child is fully
    contained in its parent's interval (a cross-node child may outlive
    its parent — e.g. a serve delivered after the router retried the
    attempt — so only the start bound applies across nodes). *)

val root_name : journey -> string option
(** Name of the first root span, if any. *)
