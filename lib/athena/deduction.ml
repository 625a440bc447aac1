(* Deductions and their checker.

   "The proof language analog of expression is called a deduction. Like
   expressions, deductions are executed. Proper deductions ... produce
   theorems and add them to the assumption base; improper deductions result
   in an error condition."

   [eval ab d] executes deduction [d] against assumption base [ab] and
   returns the proposition it proves, raising [Proof_error] on any improper
   step. Soundness is by construction: every constructor checks its own
   side conditions and sub-deductions are evaluated recursively, so a
   returned proposition is always derivable from [ab].

   First-class *methods* are ordinary OCaml functions returning deductions
   — exactly the paper's observation that Athena's first-class
   functions/methods subsume modules and type parameterisation for
   organising generic proofs. *)

open Logic

exception Proof_error of string

let fail fmt = Fmt.kstr (fun s -> raise (Proof_error s)) fmt

type t =
  | Claim of prop (* p, if p is in the assumption base *)
  | Assume of prop * t (* evaluate body with p assumed; yields p ==> q *)
  | Suppose_absurd of prop * t (* body must yield False; yields ~p *)
  | Mp of t * t (* from p ==> q and p, derive q *)
  | Mt of t * t (* from p ==> q and ~q, derive ~p *)
  | Both of t * t (* and-introduction *)
  | Left_and of t (* from p /\ q derive p *)
  | Right_and of t (* from p /\ q derive q *)
  | Either_left of t * prop (* from p derive p \/ q *)
  | Either_right of prop * t (* from q derive p \/ q *)
  | Cases of t * t * t (* from p \/ q, p ==> r, q ==> r derive r *)
  | Absurd of t * t (* from p and ~p derive False *)
  | From_false of t * prop (* from False derive anything *)
  | Double_neg of t (* from ~~p derive p *)
  | Iff_intro of t * t (* from p ==> q and q ==> p derive p <=> q *)
  | Iff_left of t (* from p <=> q derive p ==> q *)
  | Iff_right of t (* from p <=> q derive q ==> p *)
  | Refl of term (* t = t *)
  | Sym of t (* from a = b derive b = a *)
  | Trans of t * t (* from a = b and b = c derive a = c *)
  | Congruence of string * t list (* from ai = bi derive f(a..) = f(b..) *)
  | Leibniz of t * string * prop * t
      (* Leibniz (eq, x, pattern, d): eq proves a = b, d proves
         pattern[x:=a]; derive pattern[x:=b] *)
  | Inst of t * term list (* universal elimination *)
  | Gen of string list * t (* universal introduction (eigenvariables) *)
  | Seq of t list (* evaluate in order, each result added to ab *)

let rec eval ab d =
  match d with
  | Claim p ->
    if Ab.mem p ab then p
    else fail "claim: %a is not in the assumption base" Logic.pp p
  | Assume (p, body) ->
    let q = eval (Ab.insert p ab) body in
    Implies (p, q)
  | Suppose_absurd (p, body) -> (
    match eval (Ab.insert p ab) body with
    | False -> Not p
    | q -> fail "suppose-absurd: body proved %a, not false" Logic.pp q)
  | Mp (dimp, dp) -> (
    match eval ab dimp with
    | Implies (p, q) ->
      let p' = eval ab dp in
      if alpha_equal p p' then q
      else fail "modus ponens: %a does not match premise %a" Logic.pp p'
             Logic.pp p
    | r -> fail "modus ponens: %a is not an implication" Logic.pp r)
  | Mt (dimp, dnq) -> (
    match eval ab dimp with
    | Implies (p, q) -> (
      match eval ab dnq with
      | Not q' when alpha_equal q q' -> Not p
      | r -> fail "modus tollens: %a is not ~%a" Logic.pp r Logic.pp q)
    | r -> fail "modus tollens: %a is not an implication" Logic.pp r)
  | Both (d1, d2) -> And (eval ab d1, eval ab d2)
  | Left_and d -> (
    match eval ab d with
    | And (p, _) -> p
    | r -> fail "left-and: %a is not a conjunction" Logic.pp r)
  | Right_and d -> (
    match eval ab d with
    | And (_, q) -> q
    | r -> fail "right-and: %a is not a conjunction" Logic.pp r)
  | Either_left (d, q) -> Or (eval ab d, q)
  | Either_right (p, d) -> Or (p, eval ab d)
  | Cases (dor, dl, dr) -> (
    match eval ab dor with
    | Or (p, q) -> (
      match eval ab dl, eval ab dr with
      | Implies (p', r1), Implies (q', r2)
        when alpha_equal p p' && alpha_equal q q' && alpha_equal r1 r2 ->
        r1
      | r1, r2 ->
        fail "cases: branches %a / %a do not discharge %a" Logic.pp r1
          Logic.pp r2 Logic.pp (Or (p, q)))
    | r -> fail "cases: %a is not a disjunction" Logic.pp r)
  | Absurd (dp, dnp) -> (
    let p = eval ab dp in
    match eval ab dnp with
    | Not p' when alpha_equal p p' -> False
    | r -> fail "absurd: %a is not the negation of %a" Logic.pp r Logic.pp p)
  | From_false (dfalse, p) -> (
    match eval ab dfalse with
    | False -> p
    | r -> fail "from-false: %a is not false" Logic.pp r)
  | Double_neg d -> (
    match eval ab d with
    | Not (Not p) -> p
    | r -> fail "double-negation: %a is not doubly negated" Logic.pp r)
  | Iff_intro (d1, d2) -> (
    match eval ab d1, eval ab d2 with
    | Implies (p, q), Implies (q', p')
      when alpha_equal p p' && alpha_equal q q' ->
      Iff (p, q)
    | r1, r2 ->
      fail "iff-intro: %a and %a are not converse implications" Logic.pp r1
        Logic.pp r2)
  | Iff_left d -> (
    match eval ab d with
    | Iff (p, q) -> Implies (p, q)
    | r -> fail "iff-left: %a is not an equivalence" Logic.pp r)
  | Iff_right d -> (
    match eval ab d with
    | Iff (p, q) -> Implies (q, p)
    | r -> fail "iff-right: %a is not an equivalence" Logic.pp r)
  | Refl t -> Eq (t, t)
  | Sym d -> (
    match eval ab d with
    | Eq (a, b) -> Eq (b, a)
    | r -> fail "symmetry: %a is not an equation" Logic.pp r)
  | Trans (d1, d2) -> (
    match eval ab d1, eval ab d2 with
    | Eq (a, b), Eq (b', c) when term_equal b b' -> Eq (a, c)
    | r1, r2 ->
      fail "transitivity: %a and %a do not chain" Logic.pp r1 Logic.pp r2)
  | Congruence (f, ds) ->
    let eqs =
      List.map
        (fun d ->
          match eval ab d with
          | Eq (a, b) -> (a, b)
          | r -> fail "congruence: %a is not an equation" Logic.pp r)
        ds
    in
    Eq (App (f, List.map fst eqs), App (f, List.map snd eqs))
  | Leibniz (deq, x, pattern, dprem) -> (
    match eval ab deq with
    | Eq (a, b) ->
      let expected = subst [ (x, a) ] pattern in
      let actual = eval ab dprem in
      if alpha_equal expected actual then subst [ (x, b) ] pattern
      else
        fail "leibniz: premise %a does not match pattern instance %a"
          Logic.pp actual Logic.pp expected
    | r -> fail "leibniz: %a is not an equation" Logic.pp r)
  | Inst (d, terms) ->
    let rec strip p terms =
      match p, terms with
      | _, [] -> p
      | Forall (x, body), t :: rest -> strip (subst [ (x, t) ] body) rest
      | _, _ -> fail "instantiate: %a is not universally quantified" Logic.pp p
    in
    strip (eval ab d) terms
  | Gen (xs, d) -> (
    (* eigenvariable condition: the generalised variables must not occur
       free in any active assumption *)
    match List.find_opt (fun x -> Ab.exists (occurs_free x) ab) xs with
    | Some x ->
      fail "generalize: variable %s occurs free in the assumption base \
            (eigenvariable condition)" x
    | None -> forall_many xs (eval ab d))
  | Seq ds -> (
    let rec go ab last = function
      | [] -> (
        match last with
        | Some p -> p
        | None -> fail "empty deduction sequence")
      | d :: rest ->
        let p = eval ab d in
        go (Ab.insert p ab) (Some p) rest
    in
    go ab None ds)

(* [check ~axioms ~goal d]: run the checker; succeed iff [d] is proper in
   the assumption base [axioms] and proves [goal] (up to alpha). *)
type verdict = Proved | Wrong_conclusion of prop | Improper of string

let check ~axioms ~goal d =
  match eval (Ab.of_list axioms) d with
  | p -> if alpha_equal p goal then Proved else Wrong_conclusion p
  | exception Proof_error msg -> Improper msg

let pp_verdict ppf = function
  | Proved -> Fmt.string ppf "proved"
  | Wrong_conclusion p -> Fmt.pf ppf "proves %a instead of the goal" Logic.pp p
  | Improper msg -> Fmt.pf ppf "improper deduction: %s" msg

(* Size of a deduction (number of inference nodes): the "proof effort"
   measure reported by the amortisation experiment C7. *)
let rec size = function
  | Claim _ | Refl _ -> 1
  | Assume (_, d) | Suppose_absurd (_, d) | Left_and d | Right_and d
  | Either_left (d, _) | Either_right (_, d) | Double_neg d | Sym d
  | Iff_left d | Iff_right d | From_false (d, _) | Inst (d, _) | Gen (_, d)
    ->
    1 + size d
  | Mp (a, b) | Mt (a, b) | Both (a, b) | Absurd (a, b) | Trans (a, b)
  | Iff_intro (a, b) ->
    1 + size a + size b
  | Cases (a, b, c) -> 1 + size a + size b + size c
  | Leibniz (a, _, _, b) -> 1 + size a + size b
  | Congruence (_, ds) | Seq ds -> List.fold_left (fun n d -> n + size d) 1 ds
