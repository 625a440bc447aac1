(* Simplicissimus + Athena: concept-based rewriting with proof-checked
   rules (Sections 3.2 and 3.3).

   Certifies the built-in rules by running their generic proofs through the
   Athena-style checker, regenerates the Fig. 5 instance table by actually
   firing the two concept rules on each carrier, rewrites a user pipeline,
   and shows the LiDIA-style user rule.

     dune exec examples/optimize_and_prove.exe *)

open Gp_simplicissimus

let rule_line = String.make 72 '-'

let () =
  Fmt.pr "=== Simplicissimus: concept-based optimization ===@.@.";

  (* 1. Certify the rules: each is derivable from its concept's axioms,
     and the derivation is CHECKED, not trusted (Fig. 5, advantage 2). *)
  Fmt.pr "%s@." rule_line;
  Fmt.pr "rule certification through the proof checker@.";
  Fmt.pr "%s@." rule_line;
  let reports = Certify.certify_builtin () in
  List.iter (fun c -> Fmt.pr "%a@." Certify.pp_certification c) reports;
  Fmt.pr "@.";

  let insts = Instances.standard (Gp_standard.Standard.world ()) in
  let rules = Rules.standard in

  (* 2. Regenerate the Fig. 5 instance table from the two generic rules:
     "additional instances can be generated from the two concept-based
     rules". *)
  Fmt.pr "%s@." rule_line;
  Fmt.pr "Fig. 5 regenerated: instances derived from TWO concept rules@.";
  Fmt.pr "%s@." rule_line;
  let open Expr in
  let monoid_instances =
    [ ("i * 1", binop "*" (ivar "i") (int 1));
      ("f * 1.0", binop "*" (fvar "f") (float 1.0));
      ("b && true", binop "&&" (bvar "b") (bool true));
      ("i & 0xFF..F", binop "&" (ivar "i") (int (-1)));
      ("concat(s, \"\")", binop "^" (svar "s") (string ""));
      ("A . I", binop "." (mvar "A") (Ident ("matrix", "."))) ]
  in
  let group_instances =
    [ ("i + (-i)", binop "+" (ivar "i") (unop "neg" (ivar "i")));
      ("f * (1.0/f)", binop "*" (fvar "f") (unop "inv" (fvar "f")));
      ("r * r^-1", binop "*" (qvar "r") (unop "inv" (qvar "r")));
      ( "A . A^-1",
        let a = Var ("A", "invertible_matrix") in
        Op (".", "invertible_matrix", [ a; Op ("inv", "invertible_matrix", [ a ]) ]) ) ]
  in
  let show title pairs =
    Fmt.pr "  %s@." title;
    List.iter
      (fun (label, e) ->
        let r = Engine.rewrite ~rules ~insts e in
        let fired =
          match r.Engine.steps with
          | s :: _ -> s.Engine.st_rule
          | [] -> "(no rule)"
        in
        Fmt.pr "    %-16s -> %-8s  [%s]@." label
          (Expr.to_string r.Engine.output)
          fired)
      pairs
  in
  show "x + 0 -> x  when (x,+) models Monoid:" monoid_instances;
  show "x + (-x) -> 0  when (x,+,-) models Group:" group_instances;
  Fmt.pr "@.";

  (* 3. A pipeline with buried redexes. *)
  Fmt.pr "%s@." rule_line;
  Fmt.pr "rewriting a nested expression to fixpoint@.";
  Fmt.pr "%s@." rule_line;
  let e =
    binop "+"
      (binop "*" (binop "+" (ivar "x") (int 0)) (int 1))
      (binop "+" (int 0) (unop "neg" (ivar "x")))
  in
  let r = Engine.rewrite ~rules ~insts e in
  Fmt.pr "%a@." Engine.pp_result r;
  List.iter (fun s -> Fmt.pr "  %a@." Engine.pp_step s) r.Engine.steps;
  Fmt.pr "@.";

  (* 4. Guard soundness: a Monoid carrier does NOT get the Group rule. *)
  Fmt.pr "%s@." rule_line;
  Fmt.pr "guards: int-with-* is only a Monoid, so no inverse rule@.";
  Fmt.pr "%s@." rule_line;
  let e = binop "*" (ivar "i") (Op ("inv", "int", [ ivar "i" ])) in
  let r = Engine.rewrite ~rules ~insts e in
  Fmt.pr "%a   (unchanged: the guard protects soundness)@.@." Engine.pp_result r;

  (* 5. The LiDIA user rule (Section 3.2). *)
  Fmt.pr "%s@." rule_line;
  Fmt.pr "user rule: LiDIA's 1.0/f -> f.Inverse()@.";
  Fmt.pr "%s@." rule_line;
  let f = Var ("f", "bigfloat") in
  let e = Op ("*", "bigfloat", [ Op ("/", "bigfloat", [ float 1.0; f ]); f ]) in
  let r = Engine.rewrite ~rules ~insts e in
  Fmt.pr "%a@.@." Engine.pp_result r;

  (* 6. The Fig. 6 theorems, checked and instantiated generically. *)
  Fmt.pr "%s@." rule_line;
  Fmt.pr "Fig. 6: Strict Weak Order theorems (generic proof, many models)@.";
  Fmt.pr "%s@." rule_line;
  let open Gp_athena in
  List.iter
    (fun lt ->
      List.iter
        (fun thm_fn ->
          let thm = thm_fn ~lt in
          let verdict =
            Theorems.verify ~axioms:(Theory.strict_weak_order ~lt) thm
          in
          Fmt.pr "  %-40s over %-10s : %a@." thm.Theorems.thm_name lt
            Deduction.pp_verdict verdict)
        [ Theorems.swo_e_reflexive; Theorems.swo_e_symmetric;
          Theorems.swo_asymmetric ])
    [ "int_lt"; "string_lt"; "rational_lt" ];
  Fmt.pr "@.done.@."
