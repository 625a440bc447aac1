(* Tests for the proof checker: soundness (improper deductions rejected),
   the Fig. 6 SWO theorems, the group derivations, and generic-proof
   instantiation across operator mappings. *)

open Gp_athena
open Logic

let check_thm ~axioms thm =
  match Theorems.verify ~axioms thm with
  | Deduction.Proved -> ()
  | v ->
    Alcotest.failf "%s: %a" thm.Theorems.thm_name Deduction.pp_verdict v

(* ------------------------------------------------------------------ *)
(* Logic basics                                                        *)
(* ------------------------------------------------------------------ *)

let test_alpha_equality () =
  let p = Forall ("x", Atom ("P", [ Var "x" ])) in
  let q = Forall ("y", Atom ("P", [ Var "y" ])) in
  Alcotest.(check bool) "alpha equal" true (alpha_equal p q);
  let r = Forall ("x", Atom ("P", [ Var "z" ])) in
  Alcotest.(check bool) "different free var" false (alpha_equal p r)

let test_capture_avoiding_subst () =
  (* (forall y. P(x, y))[x := y]  must NOT capture: becomes forall y'. P(y, y') *)
  let p = Forall ("y", Atom ("P", [ Var "x"; Var "y" ])) in
  let s = subst [ ("x", Var "y") ] p in
  match s with
  | Forall (b, Atom ("P", [ Var "y"; Var b' ])) ->
    Alcotest.(check bool) "binder renamed" true (b <> "y" && b = b')
  | _ -> Alcotest.fail "unexpected substitution result"

let test_free_vars () =
  let p = Forall ("x", Atom ("P", [ Var "x"; Var "y" ])) in
  Alcotest.(check (list bool)) "only y free" [ false; true; false ]
    (List.map (fun v -> occurs_free v p) [ "x"; "y"; "z" ])

(* A free variable never matches a bound one, whatever its name: the
   first alpha-equality renamed binders to _0, _1, ... and so took a free
   _0 for the outermost binder. *)
let test_alpha_capture () =
  let refl = Forall ("x", Eq (Var "x", Var "x")) in
  let goal = Forall ("y", Eq (Var "y", Var "_0")) in
  Alcotest.(check bool) "free _0 is not bound" false (alpha_equal refl goal);
  Alcotest.(check bool) "bound _0 is bound" true
    (alpha_equal refl (Forall ("_0", Eq (Var "_0", Var "_0"))));
  List.iter
    (fun d ->
      match Deduction.check ~axioms:[ refl ] ~goal d with
      | Deduction.Proved ->
        Alcotest.failf "unsound: proved %a from %a" Logic.pp goal Logic.pp
          refl
      | Deduction.Wrong_conclusion _ | Deduction.Improper _ -> ())
    Deduction.[ Claim goal; Claim refl ]

(* Renamed binders are a function of the substitution: checking the same
   deduction twice prints the same verdict, and the fresh name is the
   first one not already free. *)
let test_fresh_names_deterministic () =
  let pxy = Forall ("x", Forall ("y", Atom ("P", [ Var "x"; Var "y" ]))) in
  let d = Deduction.(Inst (Claim pxy, [ Var "y" ])) in
  let verdict () =
    Fmt.str "@[<h>%a@]" Deduction.pp_verdict
      (Deduction.check ~axioms:[ pxy ] ~goal:True d)
  in
  let first = verdict () in
  Alcotest.(check string) "first check"
    "proves (forall y'1. P(y, y'1)) instead of the goal" first;
  Alcotest.(check string) "second check" first (verdict ());
  let body = Atom ("P", [ Var "x"; Var "y"; Var "y'1" ]) in
  Alcotest.(check string) "skips a free y'1"
    "(forall y'2. P(y, y'2, y'1))"
    (Fmt.str "@[<h>%a@]" Logic.pp
       (subst [ ("x", Var "y") ] (Forall ("y", body))))

(* The printer never breaks a line: outside any box, [Fmt.comma]'s break
   hint between arguments used to print as a newline. *)
let test_pp_one_line () =
  let pxy = Atom ("P", [ Var "x"; Var "y" ]) in
  Alcotest.(check string) "P(x, y)" "P(x, y)" (Fmt.str "%a" Logic.pp pxy);
  let long =
    Forall
      ( "a",
        Implies
          ( Atom ("int_lt", [ Var "a"; App ("f", [ Var "a"; Var "b" ]) ]),
            Eq (App ("int_add", [ const "int_zero"; Var "a" ]), Var "a") ) )
  in
  Alcotest.(check string) "no newline past the margin"
    ("claim: " ^ String.make 70 '-'
   ^ " (forall a. (int_lt(a, f(a, b)) ==> int_add(int_zero, a) = a))")
    (Fmt.str "claim: %s %a" (String.make 70 '-') Logic.pp long)

(* ------------------------------------------------------------------ *)
(* Properties against the oracles                                      *)
(* ------------------------------------------------------------------ *)

(* Few names, so binders shadow each other and free names collide with
   bound ones; _0 and _1 are the first alpha-equality's canonical names. *)
let names = [| "x"; "y"; "z"; "_0"; "_1" |]

let prop_gen =
  let open QCheck.Gen in
  let name = oneofa names in
  let term =
    fix
      (fun self n ->
        if n = 0 then map (fun x -> Var x) name
        else
          frequency
            [ (2, map (fun x -> Var x) name);
              (1, map (fun ts -> App ("f", ts)) (list_size (int_bound 2) (self (n - 1))))
            ])
      2
  in
  sized_size (int_bound 6)
  @@ fix (fun self n ->
         let leaf =
           frequency
             [ (1, return True);
               (3, map2 (fun a b -> Eq (a, b)) term term);
               (2, map (fun ts -> Atom ("P", ts)) (list_size (int_bound 2) term)) ]
         in
         if n = 0 then leaf
         else
           frequency
             [ (1, leaf);
               (1, map (fun p -> Not p) (self (n - 1)));
               (2, map2 (fun p q -> And (p, q)) (self (n / 2)) (self (n / 2)));
               (1, map2 (fun p q -> Implies (p, q)) (self (n / 2)) (self (n / 2)));
               (3, map2 (fun x p -> Forall (x, p)) name (self (n - 1)));
               (2, map2 (fun x p -> Exists (x, p)) name (self (n - 1))) ])

(* [p] with its binders renamed at random, bound occurrences following
   their binder, and each variable occurrence replaced by a random name
   with probability [slip] percent: a renaming that may capture, then a near
   miss. *)
let variant ~slip p =
  let open QCheck.Gen in
  let name = oneofa names in
  let var env x =
    map2
      (fun r y ->
        if r < slip then Var y
        else Var (Option.value ~default:x (List.assoc_opt x env)))
      (int_bound 99) name
  in
  let rec term env = function
    | Var x -> var env x
    | App (f, ts) -> map (fun ts -> App (f, ts)) (flatten_l (List.map (term env) ts))
  in
  let rec go env = function
    | (True | False) as p -> return p
    | Atom (r, ts) -> map (fun ts -> Atom (r, ts)) (flatten_l (List.map (term env) ts))
    | Eq (a, b) -> map2 (fun a b -> Eq (a, b)) (term env a) (term env b)
    | Not p -> map (fun p -> Not p) (go env p)
    | And (p, q) -> map2 (fun p q -> And (p, q)) (go env p) (go env q)
    | Or (p, q) -> map2 (fun p q -> Or (p, q)) (go env p) (go env q)
    | Implies (p, q) -> map2 (fun p q -> Implies (p, q)) (go env p) (go env q)
    | Iff (p, q) -> map2 (fun p q -> Iff (p, q)) (go env p) (go env q)
    | Forall (x, p) ->
      name >>= fun y -> map (fun p -> Forall (y, p)) (go ((x, y) :: env) p)
    | Exists (x, p) ->
      name >>= fun y -> map (fun p -> Exists (y, p)) (go ((x, y) :: env) p)
  in
  go [] p

let prop_pair =
  let open QCheck.Gen in
  let pair =
    prop_gen >>= fun p ->
    frequency
      [ (1, return p);
        (1, prop_gen);
        (3, variant ~slip:0 p);
        (3, variant ~slip:10 p) ]
    >|= fun q -> (p, q)
  in
  QCheck.make ~print:(fun (p, q) -> Fmt.str "%a  vs  %a" Logic.pp p Logic.pp q) pair

let prop_alpha_reference =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"alpha_equal = de Bruijn reference" ~count:3000
       prop_pair (fun (p, q) ->
         alpha_equal p q = Oracles.alpha_equal_reference p q))

let prop_occurs_free_reference =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"occurs_free = free_vars reference" ~count:1000
       (QCheck.make ~print:(Fmt.str "%a" Logic.pp) prop_gen) (fun p ->
         Array.for_all
           (fun x ->
             occurs_free x p = List.mem x (Oracles.free_vars_reference [] p))
           names))

(* ------------------------------------------------------------------ *)
(* Checker soundness: improper deductions                              *)
(* ------------------------------------------------------------------ *)

let patom name = Atom (name, [])

let expect_improper ~axioms d =
  match Deduction.eval (Ab.of_list axioms) d with
  | p -> Alcotest.failf "unsound: accepted %a" Logic.pp p
  | exception Deduction.Proof_error _ -> ()

let test_claim_requires_membership () =
  expect_improper ~axioms:[] (Deduction.Claim (patom "p"))

let test_mp_checks_premise () =
  let p = patom "p" and q = patom "q" and r = patom "r" in
  expect_improper
    ~axioms:[ Implies (p, q); r ]
    Deduction.(Mp (Claim (Implies (p, q)), Claim r))

let test_suppose_absurd_needs_false () =
  let p = patom "p" in
  expect_improper ~axioms:[ p ]
    Deduction.(Suppose_absurd (patom "q", Claim p))

let test_eigenvariable_condition () =
  (* With P(a) assumed, generalizing over a must fail. *)
  let pa = Atom ("P", [ Var "a" ]) in
  expect_improper ~axioms:[ pa ] Deduction.(Gen ([ "a" ], Claim pa))

let test_trans_must_chain () =
  let e1 = Eq (const "a", const "b") in
  let e2 = Eq (const "c", const "d") in
  expect_improper ~axioms:[ e1; e2 ]
    Deduction.(Trans (Claim e1, Claim e2))

let test_leibniz_pattern_mismatch () =
  let eq = Eq (const "a", const "b") in
  let pa = Atom ("P", [ const "a" ]) in
  let wrong = Atom ("Q", [ const "a" ]) in
  expect_improper ~axioms:[ eq; wrong ]
    Deduction.(Leibniz (Claim eq, "x", Atom ("P", [ Var "x" ]), Claim wrong));
  (* and the proper use succeeds *)
  let good =
    Deduction.eval
      (Ab.of_list [ eq; pa ])
      Deduction.(Leibniz (Claim eq, "x", Atom ("P", [ Var "x" ]), Claim pa))
  in
  Alcotest.(check bool) "leibniz rewrites" true
    (alpha_equal good (Atom ("P", [ const "b" ])))

let test_assume_discharges () =
  let p = patom "p" in
  let d = Deduction.(Assume (p, Claim p)) in
  let r = Deduction.eval Ab.empty d in
  Alcotest.(check bool) "p ==> p" true (alpha_equal r (Implies (p, p)))

let test_cases () =
  let p = patom "p" and q = patom "q" and r = patom "r" in
  let axioms = [ Or (p, q); Implies (p, r); Implies (q, r) ] in
  let d =
    Deduction.(
      Cases
        ( Claim (Or (p, q)),
          Claim (Implies (p, r)),
          Claim (Implies (q, r)) ))
  in
  let res = Deduction.eval (Ab.of_list axioms) d in
  Alcotest.(check bool) "or-elim yields r" true (alpha_equal res r)

let test_or_intro_and_ex_falso () =
  let p = patom "p" and q = patom "q" in
  let ab = Ab.of_list [ p; False ] in
  Alcotest.(check bool) "either-left" true
    (alpha_equal
       (Deduction.eval ab (Deduction.Either_left (Deduction.Claim p, q)))
       (Or (p, q)));
  Alcotest.(check bool) "either-right" true
    (alpha_equal
       (Deduction.eval ab (Deduction.Either_right (q, Deduction.Claim p)))
       (Or (q, p)));
  Alcotest.(check bool) "ex falso" true
    (alpha_equal
       (Deduction.eval ab (Deduction.From_false (Deduction.Claim False, q)))
       q)

let test_iff_rules () =
  let p = patom "p" and q = patom "q" in
  let ab = Ab.of_list [ Implies (p, q); Implies (q, p) ] in
  let iff =
    Deduction.(
      Iff_intro (Claim (Implies (p, q)), Claim (Implies (q, p))))
  in
  Alcotest.(check bool) "iff-intro" true
    (alpha_equal (Deduction.eval ab iff) (Iff (p, q)));
  Alcotest.(check bool) "iff-left" true
    (alpha_equal (Deduction.eval ab (Deduction.Iff_left iff)) (Implies (p, q)));
  Alcotest.(check bool) "iff-right" true
    (alpha_equal (Deduction.eval ab (Deduction.Iff_right iff)) (Implies (q, p)));
  (* mismatched halves rejected *)
  let r = patom "r" in
  expect_improper
    ~axioms:[ Implies (p, q); Implies (r, p) ]
    Deduction.(Iff_intro (Claim (Implies (p, q)), Claim (Implies (r, p))))

let test_mt_and_double_neg () =
  let p = patom "p" and q = patom "q" in
  let ab = Ab.of_list [ Implies (p, q); Not q; Not (Not p) ] in
  Alcotest.(check bool) "modus tollens" true
    (alpha_equal
       (Deduction.eval ab
          Deduction.(Mt (Claim (Implies (p, q)), Claim (Not q))))
       (Not p));
  Alcotest.(check bool) "double negation" true
    (alpha_equal
       (Deduction.eval ab (Deduction.Double_neg (Deduction.Claim (Not (Not p)))))
       p)

(* ------------------------------------------------------------------ *)
(* Fig. 6: SWO theorems                                                *)
(* ------------------------------------------------------------------ *)

let swo_axioms lt () = Theory.strict_weak_order ~lt

let test_swo_reflexive () =
  check_thm ~axioms:(swo_axioms "lt" ()) (Theorems.swo_e_reflexive ~lt:"lt")

let test_swo_symmetric () =
  check_thm ~axioms:(swo_axioms "lt" ()) (Theorems.swo_e_symmetric ~lt:"lt")

let test_swo_transitive () =
  check_thm ~axioms:(swo_axioms "lt" ()) (Theorems.swo_e_transitive ~lt:"lt")

let test_swo_asymmetric () =
  check_thm ~axioms:(swo_axioms "lt" ()) (Theorems.swo_asymmetric ~lt:"lt")

(* The SWO proofs are generic in the relation symbol: instantiate for
   int's <, string's <, and a reversed order. *)
let test_swo_generic_instantiation () =
  List.iter
    (fun lt ->
      check_thm ~axioms:(swo_axioms lt ()) (Theorems.swo_e_reflexive ~lt);
      check_thm ~axioms:(swo_axioms lt ()) (Theorems.swo_e_symmetric ~lt);
      check_thm ~axioms:(swo_axioms lt ()) (Theorems.swo_asymmetric ~lt))
    [ "int_lt"; "string_lt"; "int_gt" ]

(* Wrong axioms: the reflexivity proof must NOT check against a partial
   order's axioms (no irreflexivity axiom there). *)
let test_swo_proof_fails_on_wrong_theory () =
  let axioms = Theory.props (Theory.partial_order ~leq:"lt") in
  let thm = Theorems.swo_e_reflexive ~lt:"lt" in
  match Deduction.check ~axioms ~goal:thm.Theorems.goal thm.Theorems.proof with
  | Deduction.Proved -> Alcotest.fail "proof checked against wrong theory"
  | Deduction.Improper _ | Deduction.Wrong_conclusion _ -> ()

(* ------------------------------------------------------------------ *)
(* Monoid / group derivations                                          *)
(* ------------------------------------------------------------------ *)

let test_monoid_identity_unique () =
  check_thm
    ~axioms:(Theory.monoid Theory.int_mul)
    (Theorems.monoid_identity_unique Theory.int_mul)

let test_group_right_inverse () =
  check_thm
    ~axioms:(Theory.group_minimal Theory.int_add)
    (Theorems.group_right_inverse Theory.int_add)

let test_group_right_identity () =
  check_thm
    ~axioms:(Theory.group_minimal Theory.int_add)
    (Theorems.group_right_identity Theory.int_add)

let test_group_double_inverse () =
  check_thm
    ~axioms:(Theory.group_minimal Theory.int_add)
    (Theorems.group_double_inverse Theory.int_add)

(* One generic proof, many instances: every Fig. 5 group carrier. *)
let test_group_theorems_all_instances () =
  let results =
    Theorems.check_for_instances
      ~theorem:Theorems.group_right_inverse
      ~axioms:Theory.group_minimal Theory.group_instances
  in
  List.iter
    (fun (name, verdict) ->
      match verdict with
      | Deduction.Proved -> ()
      | v -> Alcotest.failf "%s: %a" name Deduction.pp_verdict v)
    results;
  Alcotest.(check int) "all instances checked"
    (List.length Theory.group_instances)
    (List.length results)

let int_ring =
  { Theory.r_name = "int"; add = Theory.int_add; mul = Theory.int_mul }

let test_group_left_cancellation () =
  check_thm
    ~axioms:(Theory.group_minimal Theory.int_add)
    (Theorems.group_left_cancellation Theory.int_add)

let test_ring_mul_zero () =
  check_thm ~axioms:(Theory.ring int_ring) (Theorems.ring_mul_zero int_ring)

let test_ring_zero_mul () =
  check_thm ~axioms:(Theory.ring int_ring) (Theorems.ring_zero_mul int_ring)

(* the annihilation proof needs the ring axioms: it must NOT check against
   a bare monoid base *)
let test_ring_proof_needs_ring_axioms () =
  let thm = Theorems.ring_mul_zero int_ring in
  match
    Deduction.check
      ~axioms:(Theory.props (Theory.monoid Theory.int_mul))
      ~goal:thm.Theorems.goal thm.Theorems.proof
  with
  | Deduction.Proved -> Alcotest.fail "checked against insufficient axioms"
  | _ -> ()

(* Tampered proof: swapping two steps must be rejected. *)
let test_tampered_proof_rejected () =
  let m = Theory.int_add in
  let thm = Theorems.group_right_inverse m in
  let tampered =
    match thm.Theorems.proof with
    | Deduction.Gen (xs, Deduction.Trans (a, b)) ->
      Deduction.Gen (xs, Deduction.Trans (b, a))
    | d -> d
  in
  match
    Deduction.check
      ~axioms:(Theory.props (Theory.group_minimal m))
      ~goal:thm.Theorems.goal tampered
  with
  | Deduction.Proved -> Alcotest.fail "tampered proof accepted"
  | _ -> ()

(* Order-theory morphism: the strict part of a total order satisfies the
   SWO axioms — all three derived theorems check. *)
let test_total_order_strict_is_swo () =
  List.iter
    (fun leq ->
      List.iter
        (fun thm_fn ->
          check_thm ~axioms:(Theory.total_order ~leq) (thm_fn ~leq))
        [ Theorems.strict_irreflexive; Theorems.strict_transitive;
          Theorems.strict_equiv_transitive ])
    [ "int_le"; "string_le" ]

(* ... but equivalence transitivity genuinely needs totality: it must
   NOT check against a mere partial order (incomparability is not
   transitive in posets). *)
let test_equiv_transitivity_needs_totality () =
  let thm = Theorems.strict_equiv_transitive ~leq:"le" in
  match
    Deduction.check
      ~axioms:(Theory.props (Theory.partial_order ~leq:"le"))
      ~goal:thm.Theorems.goal thm.Theorems.proof
  with
  | Deduction.Proved -> Alcotest.fail "proved without totality"
  | _ -> ();
  (* the other two hold already for partial orders *)
  check_thm ~axioms:(Theory.partial_order ~leq:"le")
    (Theorems.strict_irreflexive ~leq:"le");
  check_thm ~axioms:(Theory.partial_order ~leq:"le")
    (Theorems.strict_transitive ~leq:"le")

(* Ring theory sanity: axiom naming and counts. *)
let test_ring_theory_shape () =
  let rm =
    { Theory.r_name = "int"; add = Theory.int_add; mul = Theory.int_mul }
  in
  let axs = Theory.ring rm in
  Alcotest.(check bool) "has add_commutativity" true
    (List.exists (fun ax -> ax.Theory.ax_name = "add_commutativity") axs);
  Alcotest.(check bool) "has distributivity" true
    (List.exists (fun ax -> ax.Theory.ax_name = "left_distributivity") axs)

(* ------------------------------------------------------------------ *)
(* Axiom statements: the registry's text read as propositions          *)
(* ------------------------------------------------------------------ *)

module Concept = Gp_concepts.Concept

(* Derived and hand-written agree: the same names, in the same order,
   with structurally equal propositions. *)
let agree what derived reference =
  let names = List.map (fun ax -> ax.Theory.ax_name) in
  Alcotest.(check (list string)) (what ^ " names") (names reference)
    (names derived);
  List.iter2
    (fun d r ->
      if d.Theory.ax_prop <> r.Theory.ax_prop then
        Alcotest.failf "%s %s: %a, not %a" what d.Theory.ax_name pp d.ax_prop
          pp r.ax_prop)
    derived reference

let test_derived_theories () =
  List.iter
    (fun m ->
      let what theory = theory ^ " " ^ m.Theory.m_name in
      agree (what "semigroup") (Theory.semigroup m) (Oracles.semigroup_reference m);
      agree (what "monoid") (Theory.monoid m) (Oracles.monoid_reference m);
      agree (what "group_minimal") (Theory.group_minimal m)
        (Oracles.group_minimal_reference m);
      agree (what "abelian_group") (Theory.abelian_group m)
        (Oracles.abelian_group_reference m))
    (Theory.monoid_instances @ Theory.group_instances);
  agree "ring int" (Theory.ring Theory.int_ring)
    (Oracles.ring_reference Theory.int_ring);
  List.iter
    (fun lt ->
      agree ("swo " ^ lt) (Theory.strict_weak_order ~lt)
        (Oracles.strict_weak_order_reference ~lt))
    [ "int_lt"; "string_lt" ]

(* Which of the standard world's axioms are statements: the algebraic
   ones, and two equations of the matrix and vector-space concepts. Every
   other is prose and gets a positioned error. *)
let test_standard_statements () =
  let parsed = ref [] in
  List.iter
    (fun (c : Concept.t) ->
      List.iter
        (fun (ax : Concept.axiom) ->
          match Theory.of_statement c ax with
          | _ -> parsed := (c.name ^ "." ^ ax.ax_name) :: !parsed
          | exception Gp_concepts.Lex.Error { line; col; _ } ->
            Alcotest.(check bool)
              (ax.ax_statement ^ ": error on its line") true
              (line = 1 && col >= 1
              && col <= String.length ax.ax_statement + 1))
        (Concept.axioms c))
    (Gp_concepts.Registry.concepts (Gp_standard.Standard.world ()));
  Alcotest.(check (list string)) "the statements that parse"
    [ "AbelianGroup.commutativity"; "DenseMatrix.solve_inverts";
      "Field.mul_commutativity"; "Field.mul_inverse"; "Group.left_inverse";
      "Group.right_inverse"; "Monoid.left_identity"; "Monoid.right_identity";
      "Ring.left_distributivity"; "Ring.right_distributivity";
      "Semigroup.associativity"; "StrictWeakOrder.equivalence_transitivity";
      "StrictWeakOrder.irreflexivity"; "StrictWeakOrder.transitivity";
      "VectorSpace.unit_scalar" ]
    (List.sort compare !parsed)

(* Precedence (not, and, or, then -> to the right), the macro, and the
   grammar's positioned errors. *)
let test_statement_grammar () =
  let parse text =
    Theory.of_statement Gp_algebra.Decls.strict_weak_order
      { Concept.ax_name = "t"; ax_statement = text; ax_vars = [ "a"; "b"; "c" ] }
  in
  let lt x y = Atom ("lt", [ Var x; Var y ]) in
  Alcotest.(check bool) "precedence" true
    (parse "not lt(a,b) and lt(b,c) or lt(a,c) -> lt(c,a) -> op(a) <> id"
    = forall_many [ "a"; "b"; "c" ]
        (Implies
           ( Or (And (Not (lt "a" "b"), lt "b" "c"), lt "a" "c"),
             Implies
               (lt "c" "a", Not (Eq (App ("op", [ Var "a" ]), App ("id", []))))
           )));
  Alcotest.(check bool) "macro" true
    (parse "F(a,b) or a = c where F(x,y) := lt(y,x)"
    = forall_many [ "a"; "b"; "c" ] (Or (lt "b" "a", Eq (Var "a", Var "c"))));
  let error text =
    match parse text with
    | _ -> "parsed"
    | exception Gp_concepts.Lex.Error { line; col; message } ->
      Printf.sprintf "%d:%d: %s" line col message
  in
  Alcotest.(check (list string)) "errors"
    [ "1:1: F takes 2 arguments"; "1:1: the variable a is applied";
      "1:6: expected '=' or '<>'"; "1:7: trailing input after the statement";
      "1:6: unexpected character +" ]
    (List.map error
       [ "F(a) where F(x,y) := lt(x,y)"; "a(b) = c"; "op(a)"; "a = b c";
         "a = b+c" ])

(* A .gpc concept whose axioms are Monoid's words reads as Monoid. *)
let test_gpc_statements () =
  let module Decls = Gp_algebra.Decls in
  let reg = Gp_concepts.Registry.create () in
  Gp_concepts.Lang.load_string reg
    (Gp_concepts.Lang.to_source Decls.semigroup
    ^ Gp_concepts.Lang.to_source Decls.monoid);
  let loaded = Option.get (Gp_concepts.Registry.find_concept reg "Monoid") in
  Alcotest.(check int) "two axioms" 2 (List.length (Concept.axioms loaded));
  List.iter2
    (fun ax ax' ->
      Alcotest.(check bool) (ax.Concept.ax_name ^ " reads the same") true
        (Theory.of_statement loaded ax = Theory.of_statement Decls.monoid ax'))
    (Concept.axioms loaded) (Concept.axioms Decls.monoid)

let test_proof_size () =
  let thm = Theorems.group_right_inverse Theory.int_add in
  Alcotest.(check bool) "non-trivial proof" true
    (Deduction.size thm.Theorems.proof > 10)

let () =
  Alcotest.run "gp_athena"
    [
      ( "logic",
        [
          Alcotest.test_case "alpha equality" `Quick test_alpha_equality;
          Alcotest.test_case "capture-avoiding subst" `Quick
            test_capture_avoiding_subst;
          Alcotest.test_case "free vars" `Quick test_free_vars;
          Alcotest.test_case "alpha: free never matches bound" `Quick
            test_alpha_capture;
          Alcotest.test_case "fresh names deterministic" `Quick
            test_fresh_names_deterministic;
          Alcotest.test_case "pp keeps a line" `Quick test_pp_one_line;
          prop_alpha_reference;
          prop_occurs_free_reference;
        ] );
      ( "checker soundness",
        [
          Alcotest.test_case "claim membership" `Quick
            test_claim_requires_membership;
          Alcotest.test_case "mp premise" `Quick test_mp_checks_premise;
          Alcotest.test_case "suppose-absurd" `Quick
            test_suppose_absurd_needs_false;
          Alcotest.test_case "eigenvariable" `Quick
            test_eigenvariable_condition;
          Alcotest.test_case "trans chains" `Quick test_trans_must_chain;
          Alcotest.test_case "leibniz" `Quick test_leibniz_pattern_mismatch;
          Alcotest.test_case "assume" `Quick test_assume_discharges;
          Alcotest.test_case "cases" `Quick test_cases;
          Alcotest.test_case "or-intro / ex falso" `Quick
            test_or_intro_and_ex_falso;
          Alcotest.test_case "iff rules" `Quick test_iff_rules;
          Alcotest.test_case "mt / double-neg" `Quick test_mt_and_double_neg;
        ] );
      ( "fig6 swo",
        [
          Alcotest.test_case "E reflexive" `Quick test_swo_reflexive;
          Alcotest.test_case "E symmetric" `Quick test_swo_symmetric;
          Alcotest.test_case "E transitive" `Quick test_swo_transitive;
          Alcotest.test_case "lt asymmetric" `Quick test_swo_asymmetric;
          Alcotest.test_case "generic instantiation" `Quick
            test_swo_generic_instantiation;
          Alcotest.test_case "wrong theory rejected" `Quick
            test_swo_proof_fails_on_wrong_theory;
        ] );
      ( "algebra theorems",
        [
          Alcotest.test_case "identity unique" `Quick
            test_monoid_identity_unique;
          Alcotest.test_case "right inverse" `Quick test_group_right_inverse;
          Alcotest.test_case "right identity" `Quick
            test_group_right_identity;
          Alcotest.test_case "double inverse" `Quick
            test_group_double_inverse;
          Alcotest.test_case "all instances" `Quick
            test_group_theorems_all_instances;
          Alcotest.test_case "left cancellation" `Quick
            test_group_left_cancellation;
          Alcotest.test_case "ring: x*0 = 0" `Quick test_ring_mul_zero;
          Alcotest.test_case "ring: 0*x = 0" `Quick test_ring_zero_mul;
          Alcotest.test_case "ring proof needs ring axioms" `Quick
            test_ring_proof_needs_ring_axioms;
          Alcotest.test_case "total order strict part is SWO" `Quick
            test_total_order_strict_is_swo;
          Alcotest.test_case "equiv transitivity needs totality" `Quick
            test_equiv_transitivity_needs_totality;
          Alcotest.test_case "tampered rejected" `Quick
            test_tampered_proof_rejected;
          Alcotest.test_case "ring shape" `Quick test_ring_theory_shape;
          Alcotest.test_case "proof size" `Quick test_proof_size;
        ] );
      ( "axiom statements",
        [
          Alcotest.test_case "derived theories = hand-written" `Quick
            test_derived_theories;
          Alcotest.test_case "standard world statements" `Quick
            test_standard_statements;
          Alcotest.test_case "statement grammar" `Quick
            test_statement_grammar;
          Alcotest.test_case ".gpc statements" `Quick test_gpc_statements;
        ] );
    ]
