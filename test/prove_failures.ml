(* The proof checker's failure texts, as `gp prove` and `gp optimize`
   print them. The catalogue proofs all check, so the CLI never shows a
   failing verdict; this program makes every catalogue theorem fail two
   ways and prints the verdicts in the CLI's own formats:

   - checked against no axioms: the first [Claim] is improper, and its
     message prints the claimed proposition;
   - checked against its own axioms but given the next theorem's goal:
     the deduction proves its own conclusion instead of the goal.

   The built-in rule certifications are then printed as `gp optimize`
   prints them, each with its theorem checked against no axioms. *)

open Gp_athena

let theorems () =
  List.concat_map
    (fun (_, instances) ->
      List.concat_map
        (fun (_, axioms, thms) -> List.map (fun t -> (axioms, t)) thms)
        (Theorems.build_all instances))
    Theorems.catalogue

let () =
  let all = theorems () in
  let pr (thm : Theorems.theorem) verdict =
    Fmt.pr "%-44s %a@." thm.Theorems.thm_name Deduction.pp_verdict verdict
  in
  List.iter (fun (_, thm) -> pr thm (Theorems.verify ~axioms:[] thm)) all;
  let goals = List.map (fun (_, t) -> t.Theorems.goal) all in
  let next_goals = List.tl goals @ [ List.hd goals ] in
  List.iter2
    (fun (axioms, thm) goal ->
      pr thm (Theorems.verify ~axioms { thm with Theorems.goal }))
    all next_goals;
  List.iter
    (fun (c : Gp_simplicissimus.Certify.certification) ->
      match
        List.find_opt
          (fun (_, t) -> String.equal t.Theorems.thm_name c.cert_theorem)
          all
      with
      | None -> ()
      | Some (_, thm) ->
        Fmt.pr "%a@." Gp_simplicissimus.Certify.pp_certification
          { c with cert_verdict = Theorems.verify ~axioms:[] thm })
    (Gp_simplicissimus.Certify.certify_builtin ())
