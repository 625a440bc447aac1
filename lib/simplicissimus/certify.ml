(* Rule certification through the proof checker.

   Fig. 5, advantage 2: "The concept-based rules are directly related to
   and derivable from the axioms governing the Monoid and Group concepts."
   Certify makes that statement executable: each built-in rule names the
   theorem whose equation it implements; the theorem's generic proof is run
   through gp_athena's checker, and the verdicts are a value. [certified]
   narrows a rule set to what they prove, and a certified-only rewrite
   hands the engine that set.

   Certification also discharges instance axioms in a gp_concepts
   registry: for every exact standard carrier with a Theory mapping, the
   derived equations (right inverse from the minimal group presentation,
   etc.) are declared through [Registry.certify_axiom], which silences the
   checker's "asserted but not proved" warnings for those carriers. *)

open Gp_athena

type certification = {
  cert_rule : string;
  cert_theorem : string;
  cert_verdict : Deduction.verdict;
}

(* The theorem backing each built-in rule, over a canonical mapping. The
   proof is generic: checking it once per rule suffices for every carrier
   that models the guard concept. *)
let theorem_for (r : Rules.t) : Theorems.theorem option =
  let m = Theory.int_add in
  (* canonical mapping; the proof is symbol-generic *)
  if r == Rules.right_identity then Some (Theorems.monoid_right_identity m)
  else if r == Rules.left_identity then
    let axs = Theory.monoid m in
    let p = Theory.find axs "left_identity" in
    Some { Theorems.thm_name = "Monoid: left identity"; goal = p;
           proof = Deduction.Claim p }
  else if r == Rules.right_inverse then Some (Theorems.group_right_inverse m)
  else if r == Rules.left_inverse then
    let axs = Theory.group_minimal m in
    let p = Theory.find axs "left_inverse" in
    Some { Theorems.thm_name = "Group: left inverse"; goal = p;
           proof = Deduction.Claim p }
  else if r == Rules.double_inverse then
    Some (Theorems.group_double_inverse m)
  else if r == Rules.mul_zero_right then
    Some (Theorems.ring_mul_zero Theory.int_ring)
  else if r == Rules.mul_zero_left then
    Some (Theorems.ring_zero_mul Theory.int_ring)
  else if r == Rules.identity_fold then
    (* op(e, e) = e: right identity instantiated at the identity itself *)
    let axs = Theory.monoid m in
    let rid = Theory.find axs "right_identity" in
    let e = Theory.e_of m in
    Some
      {
        Theorems.thm_name = "Monoid: identity absorbs identity";
        goal = Logic.Eq (Theory.( %. ) m (e, e), e);
        proof = Deduction.Inst (Deduction.Claim rid, [ e ]);
      }
  else None

let axioms_for (r : Rules.t) =
  let m = Theory.int_add in
  if r.Rules.requires_ring then Theory.ring Theory.int_ring
  else
    match r.Rules.guard with
    | Rules.Concept "Monoid" -> Theory.monoid m
    | Rules.Concept ("Group" | "AbelianGroup") -> Theory.group_minimal m
    | Rules.Concept _ | Rules.Carrier _ -> Theory.semigroup m

(* Certify one rule: check its backing theorem. *)
let certify_rule (r : Rules.t) =
  match theorem_for r with
  | None ->
    {
      cert_rule = r.Rules.rule_name;
      cert_theorem = "(none: user rule, trusted as a library fact)";
      cert_verdict = Deduction.Improper "no backing theorem";
    }
  | Some thm ->
    let verdict = Theorems.verify ~axioms:(axioms_for r) thm in
    {
      cert_rule = r.Rules.rule_name;
      cert_theorem = thm.Theorems.thm_name;
      cert_verdict = verdict;
    }

let certify_builtin () = List.map certify_rule Rules.builtin

(* User rules are library facts no theorem backs; a concept rule stays
   when a certification of its name proved. *)
let certified certs rules =
  let proved (r : Rules.t) =
    List.exists
      (fun c ->
        String.equal c.cert_rule r.Rules.rule_name
        && match c.cert_verdict with Deduction.Proved -> true | _ -> false)
      certs
  in
  List.filter
    (fun (r : Rules.t) ->
      match r.Rules.guard with
      | Rules.Carrier _ -> true
      | Rules.Concept _ -> proved r)
    rules

(* Discharge the derived group axioms for every exactly-modeled carrier
   of Gp_algebra.Decls into [reg]: the right_inverse/right_identity
   axioms asserted there become *proved* for the carriers [reg] models
   as groups and monoids. A carrier's operator mapping is the Theory
   instance of the same name. *)
let discharge_instance_axioms reg =
  List.concat_map
    (fun (c : Gp_algebra.Decls.carrier) ->
      let name = Gp_algebra.Decls.carrier_name ~elem:c.c_elem ~op:c.c_op in
      let named m = String.equal m.Theory.m_name name in
      match List.find_opt named Theory.(monoid_instances @ group_instances) with
      | Some m when c.c_exact ->
        let args = [ Gp_concepts.Ctype.Named name ] in
        let discharge ~concept ~axiom thm axioms =
          if not (Gp_concepts.Check.(models ~mode:Nominal) reg concept args)
          then []
          else
            match Theorems.verify ~axioms thm with
            | Deduction.Proved ->
              Gp_concepts.Registry.certify_axiom reg ~concept ~axiom ~args;
              [ (name, axiom) ]
            | _ -> []
        in
        let group =
          discharge ~concept:"Group" ~axiom:"right_inverse"
            (Theorems.group_right_inverse m) (Theory.group_minimal m)
        in
        discharge ~concept:"Monoid" ~axiom:"right_identity"
          (Theorems.monoid_right_identity m) (Theory.monoid m)
        @ group
      | _ -> [])
    Gp_algebra.Decls.carriers

let pp_certification ppf c =
  Fmt.pf ppf "%-18s <- %-32s : %a" c.cert_rule c.cert_theorem
    Deduction.pp_verdict c.cert_verdict
