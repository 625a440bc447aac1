(** Rule certification through the proof checker (Fig. 5, advantage 2:
    the rules are "directly related to and derivable from the axioms").

    Each built-in rule names the theorem whose equation it implements;
    the theorem's generic proof runs through gp_athena's checker. The
    verdicts are a value: {!certified} narrows a rule set to the rules
    they prove, and a certified-only rewrite runs the engine on that
    set. Nothing here mutates a rule or any global state. *)

type certification = {
  cert_rule : string;
  cert_theorem : string;
  cert_verdict : Gp_athena.Deduction.verdict;
}

val certify_builtin : unit -> certification list
(** Check the backing theorem of every rule of {!Rules.builtin}, in
    order. *)

val certified : certification list -> Rules.t list -> Rules.t list
(** [certified certs rules]: the rules a certified-only rewrite may
    apply, in their order — every user rule (a library fact, backed by
    no theorem) and every concept rule that a certification of the same
    name proved. *)

val discharge_instance_axioms :
  Gp_concepts.Registry.t -> (string * string) list
(** For every exact carrier of {!Gp_algebra.Decls.carriers} that has a
    Theory mapping of its name ([Gp_athena.Theory.monoid_instances] and
    [group_instances]) and that the registry models as a Group (Monoid),
    declare the derived right inverse (right identity) equation
    certified in the registry ({!Gp_concepts.Registry.certify_axiom}),
    turning "asserted" axiom warnings into certified facts there and in
    forks made afterwards. Returns (carrier, axiom) pairs discharged. *)

val pp_certification : Format.formatter -> certification -> unit
