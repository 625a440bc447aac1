(** The rewrite engine: bottom-up normalisation to a fixpoint.

    Rules fire wherever the registry says their concept guards hold
    ({!Instances.models}) — "optimization via concept-based rewrite
    rules comes essentially for free" once the modeling relation is
    declared. Every application is logged, so the Fig. 5 instance table
    regenerates mechanically from the rules (bench F5). *)

type step = {
  st_rule : string;
  st_carrier : string * string;  (** (type, op) the guard was checked on *)
  st_before : Expr.t;
  st_after : Expr.t;
}

type result = {
  input : Expr.t;
  output : Expr.t;
  steps : step list;
  ops_before : int;
  ops_after : int;
}

val max_steps : int
(** The step budget of one {!rewrite}: the rule application that would
    be the [max_steps]-th raises {!Did_not_terminate} instead. *)

exception
  Did_not_terminate of {
    dnt_input : Expr.t;  (** the expression rewriting started from *)
    dnt_partial : Expr.t;
        (** the partially-normalised term at the moment the budget ran
            out — rule firing stops but reconstruction completes, so
            this is a well-formed expression *)
    dnt_steps : step list;
        (** every step taken before exhaustion, in order (the step that
            tripped the budget is not included) *)
  }
(** Raised if rewriting exceeds the internal step budget (a cyclic user
    rule set). The payload reports how far rewriting got, so a caller
    can diagnose the looping rule from the step trace. *)

val rewrite : rules:Rules.t list -> insts:Instances.t -> Expr.t -> result
(** Normalise to a fixpoint with the given rules. A certified-only
    rewrite passes the rules {!Certify.certified} keeps.

    Internally the rule list is indexed by what each rule's LHS root can
    match ({!Rules.head}), so a node only ever tries rules that could
    possibly fire at it; guard checks are memoised per (carrier, concept)
    across the whole call. Firing order is that of trying every rule, in
    list order, at every node (the test oracle does exactly that).

    When a telemetry sink is installed ([Gp_telemetry.Tel.install]) each
    call opens a [simplicissimus.rewrite] span whose attributes carry its
    [steps], [guard_probes], [guard_hits] and the space-separated
    [heads] of the fired rules in firing order (a guard-memo miss records
    the checker's [concepts.check] span beneath it); with no sink the
    instrumentation is a single flag check (bench s3 measures the gap
    against {!rewrite_uninstrumented}). The result is identical either
    way. *)

val rewrite_uninstrumented :
  rules:Rules.t list -> insts:Instances.t -> Expr.t -> result
(** The bare indexed engine with no telemetry wrapper at all — the
    honest baseline bench s3 compares {!rewrite} against. Semantically
    identical to {!rewrite}. *)

val pp_step : Format.formatter -> step -> unit
val pp_result : Format.formatter -> result -> unit
