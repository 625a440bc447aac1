(* Generic proofs.

   "Proofs can themselves be generic components: one can express a proof
   once and subsequently instantiate it many times to prove more specific
   cases, in much the same way as one does with generic algorithms."

   Every theorem here is a function from an operator mapping (or relation
   symbol) to a pair (deduction, goal). The deduction is *checked* — never
   searched for — against the theory's axioms; instantiating the mapping
   re-uses the identical proof skeleton for every model, which experiment
   C7 measures (write/check once, instantiate N times). *)

open Logic
open Deduction

type theorem = { goal : prop; proof : Deduction.t; thm_name : string }

let verify ~axioms thm =
  Deduction.check ~axioms:(Theory.props axioms) ~goal:thm.goal thm.proof

(* Fold a list of equation deductions a=b, b=c, ... into one a=z. *)
let trans_chain = function
  | [] -> invalid_arg "trans_chain: empty"
  | d :: rest -> List.fold_left (fun acc e -> Trans (acc, e)) d rest

(* ------------------------------------------------------------------ *)
(* Strict Weak Order: the Fig. 6 derived theorems                      *)
(* ------------------------------------------------------------------ *)

(* E is reflexive: forall a. ~(a<a) /\ ~(a<a) — derived from
   irreflexivity, as the paper's Fig. 6 caption states. *)
let swo_e_reflexive ~lt =
  let axioms = Theory.strict_weak_order ~lt in
  let irrefl = Claim (Theory.find axioms "irreflexivity") in
  let va = Var "a" in
  {
    thm_name = "SWO: equivalence is reflexive";
    goal = Forall ("a", Theory.equiv lt va va);
    proof = Gen ([ "a" ], Both (Inst (irrefl, [ va ]), Inst (irrefl, [ va ])));
  }

(* E is symmetric: forall a b. E(a,b) ==> E(b,a) — swap the conjuncts. *)
let swo_e_symmetric ~lt =
  let va = Var "a" and vb = Var "b" in
  let eab = Theory.equiv lt va vb in
  {
    thm_name = "SWO: equivalence is symmetric";
    goal = forall_many [ "a"; "b" ] (Implies (eab, Theory.equiv lt vb va));
    proof =
      Gen
        ( [ "a"; "b" ],
          Assume (eab, Both (Right_and (Claim eab), Left_and (Claim eab))) );
  }

(* E transitivity restated as a checked theorem (it is an axiom; the claim
   is still run through the checker, which verifies it is in the base). *)
let swo_e_transitive ~lt =
  let axioms = Theory.strict_weak_order ~lt in
  let p = Theory.find axioms "equivalence_transitivity" in
  { thm_name = "SWO: equivalence is transitive"; goal = p; proof = Claim p }

(* Less-than is asymmetric: forall a b. a<b ==> ~(b<a). From transitivity
   and irreflexivity: if a<b and b<a then a<a, contradiction. *)
let swo_asymmetric ~lt =
  let axioms = Theory.strict_weak_order ~lt in
  let irrefl = Theory.find axioms "irreflexivity" in
  let trans = Theory.find axioms "transitivity" in
  let va = Var "a" and vb = Var "b" in
  let ab_ = Theory.lt_atom lt va vb and ba = Theory.lt_atom lt vb va in
  {
    thm_name = "SWO: < is asymmetric";
    goal = forall_many [ "a"; "b" ] (Implies (ab_, Not ba));
    proof =
      Gen
        ( [ "a"; "b" ],
          Assume
            ( ab_,
              Suppose_absurd
                ( ba,
                  Absurd
                    ( Mp
                        ( Inst (Claim trans, [ va; vb; va ]),
                          Both (Claim ab_, Claim ba) ),
                      Inst (Claim irrefl, [ va ]) ) ) ) );
  }

(* ------------------------------------------------------------------ *)
(* Monoid theorems                                                     *)
(* ------------------------------------------------------------------ *)

(* The right-identity equation certifying the Fig. 5 rule x + 0 -> x. *)
let monoid_right_identity (m : Theory.mapping) =
  let axioms = Theory.monoid m in
  let p = Theory.find axioms "right_identity" in
  {
    thm_name = Printf.sprintf "Monoid %s: right identity" m.Theory.m_name;
    goal = p;
    proof = Claim p;
  }

(* Identity is unique: any right identity f equals e. *)
let monoid_identity_unique (m : Theory.mapping) =
  let axioms = Theory.monoid m in
  let left_id = Claim (Theory.find axioms "left_identity") in
  let open Theory in
  let vf = Var "f" in
  let e = e_of m in
  let hyp = Forall ("x", Eq (m %. (Var "x", vf), Var "x")) in
  {
    thm_name = Printf.sprintf "Monoid %s: identity unique" m.Theory.m_name;
    goal = Forall ("f", Implies (hyp, Eq (vf, e)));
    proof =
      Gen
        ( [ "f" ],
          Assume
            ( hyp,
              Trans
                ( (* f = op(e, f) *)
                  Sym (Inst (left_id, [ vf ])),
                  (* op(e, f) = e   [hyp at x := e] *)
                  Inst (Claim hyp, [ e ]) ) ) );
  }

(* ------------------------------------------------------------------ *)
(* Group theorems: the classic derivations from the minimal            *)
(* presentation {associativity, left identity, left inverse}           *)
(* ------------------------------------------------------------------ *)

(* An axiom of the minimal presentation, as a claim. *)
let minimal m name = Claim (Theory.find (Theory.group_minimal m) name)

(* forall x. op(x, inv x) = e — certifies the Fig. 5 rule
   x + (-x) -> 0 from first principles rather than by assertion. *)
let group_right_inverse (m : Theory.mapping) =
  let assoc = minimal m "associativity" and left_id = minimal m "left_identity"
  and left_inv = minimal m "left_inverse" in
  let open Theory in
  let x = Var "x" in
  let y = inv_of m x in
  let iy = inv_of m y in
  let xy = m %. (x, y) in
  let e = e_of m in
  let steps =
    [
      (* xy = e . xy *)
      Sym (Inst (left_id, [ xy ]));
      (* e . xy = (inv y . y) . xy *)
      Congruence (m.Theory.op, [ Sym (Inst (left_inv, [ y ])); Refl xy ]);
      (* (inv y . y) . xy = inv y . (y . xy) *)
      Inst (assoc, [ iy; y; xy ]);
      (* inv y . (y . xy) = inv y . ((y . x) . y) *)
      Congruence (m.Theory.op, [ Refl iy; Sym (Inst (assoc, [ y; x; y ])) ]);
      (* inv y . ((y . x) . y) = inv y . (e . y)   [y.x = inv x . x = e] *)
      Congruence
        ( m.Theory.op,
          [
            Refl iy;
            Congruence (m.Theory.op, [ Inst (left_inv, [ x ]); Refl y ]);
          ] );
      (* inv y . (e . y) = inv y . y *)
      Congruence (m.Theory.op, [ Refl iy; Inst (left_id, [ y ]) ]);
      (* inv y . y = e *)
      Inst (left_inv, [ y ]);
    ]
  in
  {
    thm_name = Printf.sprintf "Group %s: right inverse" m.Theory.m_name;
    goal = Forall ("x", Eq (m %. (x, y), e));
    proof = Gen ([ "x" ], trans_chain steps);
  }

(* forall x. op(x, e) = x — right identity from the minimal presentation,
   via the right-inverse theorem (proved inline and added to the base by
   the Seq). *)
let group_right_identity (m : Theory.mapping) =
  let assoc = minimal m "associativity" and left_id = minimal m "left_identity"
  and left_inv = minimal m "left_inverse" in
  let ri = group_right_inverse m in
  let open Theory in
  let x = Var "x" in
  let y = inv_of m x in
  let e = e_of m in
  let steps =
    [
      (* x . e = x . (y . x)   [e = inv x . x] *)
      Congruence (m.Theory.op, [ Refl x; Sym (Inst (left_inv, [ x ])) ]);
      (* x . (y . x) = (x . y) . x *)
      Sym (Inst (assoc, [ x; y; x ]));
      (* (x . y) . x = e . x   [x . inv x = e by the right-inverse thm] *)
      Congruence (m.Theory.op, [ Inst (Claim ri.goal, [ x ]); Refl x ]);
      (* e . x = x *)
      Inst (left_id, [ x ]);
    ]
  in
  {
    thm_name = Printf.sprintf "Group %s: right identity" m.Theory.m_name;
    goal = Forall ("x", Eq (m %. (x, e), x));
    proof = Seq [ ri.proof; Gen ([ "x" ], trans_chain steps) ];
  }

(* forall x. inv (inv x) = x — double inverse, a further exercise of the
   equational machinery. inv(inv x) = inv(inv x) . e = inv(inv x) . (inv x
   . x) = (inv(inv x) . inv x) . x = e . x = x. Uses the right-identity
   theorem. *)
let group_double_inverse (m : Theory.mapping) =
  let assoc = minimal m "associativity" and left_id = minimal m "left_identity"
  and left_inv = minimal m "left_inverse" in
  let rid = group_right_identity m in
  let open Theory in
  let x = Var "x" in
  let y = inv_of m x in
  let iy = inv_of m y in

  let steps =
    [
      (* inv(inv x) = inv(inv x) . e   [Sym of right identity] *)
      Sym (Inst (Claim rid.goal, [ iy ]));
      (* inv(inv x) . e = inv(inv x) . (inv x . x) *)
      Congruence (m.Theory.op, [ Refl iy; Sym (Inst (left_inv, [ x ])) ]);
      (* inv(inv x) . (inv x . x) = (inv(inv x) . inv x) . x *)
      Sym (Inst (assoc, [ iy; y; x ]));
      (* (inv(inv x) . inv x) . x = e . x *)
      Congruence (m.Theory.op, [ Inst (left_inv, [ y ]); Refl x ]);
      (* e . x = x *)
      Inst (left_id, [ x ]);
    ]
  in
  {
    thm_name = Printf.sprintf "Group %s: double inverse" m.Theory.m_name;
    goal = Forall ("x", Eq (iy, x));
    proof = Seq [ rid.proof; Gen ([ "x" ], trans_chain steps) ];
  }

(* forall a b c. a+b = a+c ==> b = c — left cancellation in a group,
   from the minimal presentation. The workhorse for the ring annihilation
   theorem below. *)
let group_left_cancellation (m : Theory.mapping) =
  let assoc = minimal m "associativity" and left_id = minimal m "left_identity"
  and left_inv = minimal m "left_inverse" in
  let open Theory in
  let va = Var "a" and vb = Var "b" and vc = Var "c" in
  let ia = inv_of m va in
  let hyp = Eq (m %. (va, vb), m %. (va, vc)) in
  let steps =
    [
      (* b = e . b *)
      Sym (Inst (left_id, [ vb ]));
      (* e . b = (inv a . a) . b *)
      Congruence (m.Theory.op, [ Sym (Inst (left_inv, [ va ])); Refl vb ]);
      (* (inv a . a) . b = inv a . (a . b) *)
      Inst (assoc, [ ia; va; vb ]);
      (* inv a . (a . b) = inv a . (a . c)   [the hypothesis] *)
      Congruence (m.Theory.op, [ Refl ia; Claim hyp ]);
      (* inv a . (a . c) = (inv a . a) . c *)
      Sym (Inst (assoc, [ ia; va; vc ]));
      (* (inv a . a) . c = e . c *)
      Congruence (m.Theory.op, [ Inst (left_inv, [ va ]); Refl vc ]);
      (* e . c = c *)
      Inst (left_id, [ vc ]);
    ]
  in
  {
    thm_name = Printf.sprintf "Group %s: left cancellation" m.Theory.m_name;
    goal = forall_many [ "a"; "b"; "c" ] (Implies (hyp, Eq (vb, vc)));
    proof = Gen ([ "a"; "b"; "c" ], Assume (hyp, trans_chain steps));
  }

(* forall x. x * 0 = 0 — multiplication by the additive zero annihilates,
   derived from the ring axioms: x*0 = x*(0+0) = x*0 + x*0, while
   x*0 + 0 = x*0; cancel on the left. Certifies the Ring rewrite rule
   x * 0 -> 0. *)
let ring_mul_zero (rm : Theory.ring_mapping) =
  let axioms = Theory.ring rm in
  let add = rm.Theory.add and mul = rm.Theory.mul in
  let open Theory in
  let x = Var "x" in
  let zero = e_of add in
  let x0 = mul %. (x, zero) in
  (* left cancellation for the additive group, with axiom names prefixed
     by "add_" in the ring theory: restate its proof against the ring's
     axiom set by instantiating the generic proof with the add mapping —
     but the ring's assumption base uses the very same propositions, so
     the claims resolve. *)
  let cancel = group_left_cancellation add in
  let add_right_id = Claim (Theory.find axioms "add_right_identity") in
  let add_left_id = Claim (Theory.find axioms "add_left_identity") in
  let ldistrib = Claim (Theory.find axioms "left_distributivity") in
  (* premise: x0 + x0 = x0 + 0 *)
  let premise =
    Trans
      ( Sym
          (trans_chain
             [
               (* x0 = x * (0 + 0) *)
               Congruence
                 (mul.Theory.op, [ Refl x; Sym (Inst (add_left_id, [ zero ])) ]);
               (* x * (0+0) = x*0 + x*0 *)
               Inst (ldistrib, [ x; zero; zero ]);
             ]),
        (* x0 = x0 + 0 *)
        Sym (Inst (add_right_id, [ x0 ])) )
  in
  {
    thm_name =
      Printf.sprintf "Ring %s: multiplication by zero annihilates"
        rm.Theory.r_name;
    goal = Forall ("x", Eq (x0, zero));
    proof =
      Seq
        [
          cancel.proof;
          Gen
            ( [ "x" ],
              Mp (Inst (Claim cancel.goal, [ x0; x0; zero ]), premise) );
        ];
  }

(* forall x. 0 * x = 0 — the mirror, via right distributivity. *)
let ring_zero_mul (rm : Theory.ring_mapping) =
  let axioms = Theory.ring rm in
  let add = rm.Theory.add and mul = rm.Theory.mul in
  let open Theory in
  let x = Var "x" in
  let zero = e_of add in
  let zx = mul %. (zero, x) in
  let cancel = group_left_cancellation add in
  let add_right_id = Claim (Theory.find axioms "add_right_identity") in
  let add_left_id = Claim (Theory.find axioms "add_left_identity") in
  let rdistrib = Claim (Theory.find axioms "right_distributivity") in
  let premise =
    Trans
      ( Sym
          (trans_chain
             [
               Congruence
                 (mul.Theory.op, [ Sym (Inst (add_left_id, [ zero ])); Refl x ]);
               Inst (rdistrib, [ zero; zero; x ]);
             ]),
        Sym (Inst (add_right_id, [ zx ])) )
  in
  {
    thm_name =
      Printf.sprintf "Ring %s: zero times anything is zero" rm.Theory.r_name;
    goal = Forall ("x", Eq (zx, zero));
    proof =
      Seq
        [
          cancel.proof;
          Gen
            ( [ "x" ],
              Mp (Inst (Claim cancel.goal, [ zx; zx; zero ]), premise) );
        ];
  }

(* ------------------------------------------------------------------ *)
(* Order-theory morphisms: the strict part of a total order is a       *)
(* Strict Weak Order. The paper's ordering-concepts taxonomy (partial, *)
(* strict weak, total) connected by checked derivations: each SWO      *)
(* axiom, with lt(x,y) expanded to leq(x,y) /\ ~leq(y,x), is proved    *)
(* from the total-order axioms.                                        *)
(* ------------------------------------------------------------------ *)

let strict ~leq x y = And (Theory.lt_atom leq x y, Not (Theory.lt_atom leq y x))

(* ~(leq(a,a) /\ ~leq(a,a)) — a propositional tautology by absurdity. *)
let strict_irreflexive ~leq =
  let va = Var "a" in
  let ltaa = strict ~leq va va in
  {
    thm_name = "TotalOrder: strict part is irreflexive";
    goal = Forall ("a", Not ltaa);
    proof =
      Gen
        ( [ "a" ],
          Suppose_absurd
            (ltaa, Absurd (Left_and (Claim ltaa), Right_and (Claim ltaa))) );
  }

(* Transitivity of the strict part, from leq-transitivity alone. *)
let strict_transitive ~leq =
  let axioms = Theory.partial_order ~leq in
  let trans = Claim (Theory.find axioms "transitivity") in
  let le x y = Theory.lt_atom leq x y in
  let va = Var "a" and vb = Var "b" and vc = Var "c" in
  let ltab = strict ~leq va vb and ltbc = strict ~leq vb vc in
  let hyp = And (ltab, ltbc) in
  {
    thm_name = "TotalOrder: strict part is transitive";
    goal =
      forall_many [ "a"; "b"; "c" ] (Implies (hyp, strict ~leq va vc));
    proof =
      Gen
        ( [ "a"; "b"; "c" ],
          Assume
            ( hyp,
              Both
                ( (* leq a c *)
                  Mp
                    ( Inst (trans, [ va; vb; vc ]),
                      Both
                        ( Left_and (Left_and (Claim hyp)),
                          Left_and (Right_and (Claim hyp)) ) ),
                  (* ~leq c a: supposing it, leq b c and leq c a give
                     leq b a, contradicting ~leq b a from lt(a,b) *)
                  Suppose_absurd
                    ( le vc va,
                      Absurd
                        ( Mp
                            ( Inst (trans, [ vb; vc; va ]),
                              Both
                                ( Left_and (Right_and (Claim hyp)),
                                  Claim (le vc va) ) ),
                          Right_and (Left_and (Claim hyp)) ) ) ) ) );
  }

(* From E(x,y) (neither strictly less) and totality, both leq(x,y) and
   leq(y,x) hold — the lemma behind equivalence transitivity. *)
let equiv_means_both_leq ~leq x y exy_ded =
  let axioms = Theory.total_order ~leq in
  let totality = Claim (Theory.find axioms "totality") in
  let le a b = Theory.lt_atom leq a b in
  (* case leq x y: ~lt(x,y) means leq y x cannot fail *)
  let from_xy =
    Assume
      ( le x y,
        Both
          ( Claim (le x y),
            Double_neg
              (Suppose_absurd
                 ( Not (le y x),
                   Absurd
                     ( Both (Claim (le x y), Claim (Not (le y x))),
                       Left_and exy_ded ) )) ) )
  in
  (* case leq y x: symmetric, via ~lt(y,x) *)
  let from_yx =
    Assume
      ( le y x,
        Both
          ( Double_neg
              (Suppose_absurd
                 ( Not (le x y),
                   Absurd
                     ( Both (Claim (le y x), Claim (Not (le x y))),
                       Right_and exy_ded ) )),
            Claim (le y x) ) )
  in
  Cases (Inst (totality, [ x; y ]), from_xy, from_yx)

(* Transitivity of the induced equivalence: for TOTAL orders (it fails
   for mere partial orders, where incomparability is not transitive). *)
let strict_equiv_transitive ~leq =
  let axioms = Theory.total_order ~leq in
  let trans = Claim (Theory.find axioms "transitivity") in
  let le a b = Theory.lt_atom leq a b in
  let va = Var "a" and vb = Var "b" and vc = Var "c" in
  let e x y = And (Not (strict ~leq x y), Not (strict ~leq y x)) in
  let hyp = And (e va vb, e vb vc) in
  (* with all four leq facts in the base, refute lt(a,c) and lt(c,a) *)
  let no_strict x y leq_yx =
    (* ~lt(x,y) given leq(y,x) *)
    Suppose_absurd
      ( strict ~leq x y,
        Absurd (leq_yx, Right_and (Claim (strict ~leq x y))) )
  in
  {
    thm_name = "TotalOrder: induced equivalence is transitive";
    goal = forall_many [ "a"; "b"; "c" ] (Implies (hyp, e va vc));
    proof =
      Gen
        ( [ "a"; "b"; "c" ],
          Assume
            ( hyp,
              Seq
                [
                  (* unpack both equivalences into leq pairs *)
                  equiv_means_both_leq ~leq va vb (Left_and (Claim hyp));
                  equiv_means_both_leq ~leq vb vc (Right_and (Claim hyp));
                  (* chain to leq a c and leq c a *)
                  Mp
                    ( Inst (trans, [ va; vb; vc ]),
                      Both
                        ( Left_and (Claim (And (le va vb, le vb va))),
                          Left_and (Claim (And (le vb vc, le vc vb))) ) );
                  Mp
                    ( Inst (trans, [ vc; vb; va ]),
                      Both
                        ( Right_and (Claim (And (le vb vc, le vc vb))),
                          Right_and (Claim (And (le va vb, le vb va))) ) );
                  Both
                    ( no_strict va vc (Claim (le vc va)),
                      no_strict vc va (Claim (le va vc)) );
                ] ) );
  }

(* ------------------------------------------------------------------ *)
(* Instantiation driver                                                 *)
(* ------------------------------------------------------------------ *)

(* Check one generic theorem across many instance mappings — the
   amortisation pattern of Section 3.3: the deduction is built by the same
   function every time; only the operator mapping changes. *)
let check_for_instances ~theorem ~axioms instances =
  List.map
    (fun m ->
      let thm = theorem m in
      (m.Theory.m_name, verify ~axioms:(axioms m) thm))
    instances

(* The proof catalogue: each theory's instances, the axioms each is
   checked against, and its theorems, in checking order. One table for
   the CLI and the served prove kind; an instance builds its proofs when
   its builder is applied, so a request for one instance builds that
   one alone. *)
let catalogue =
  let per_instance instances axioms theorems =
    List.map
      (fun (name, m) ->
        (name, fun () -> (axioms m, List.map (fun f -> f m) theorems)))
      instances
  in
  let mappings = List.map (fun m -> (m.Theory.m_name, m)) in
  let named = List.map (fun n -> (n, n)) in
  [ ( "swo",
      per_instance
        (named [ "int_lt"; "string_lt" ])
        (fun lt -> Theory.strict_weak_order ~lt)
        (List.map
           (fun f lt -> f ~lt)
           [ swo_e_reflexive; swo_e_symmetric; swo_e_transitive;
             swo_asymmetric ]) );
    ( "group",
      per_instance
        (mappings Theory.group_instances)
        Theory.group_minimal
        [ group_right_inverse; group_right_identity; group_double_inverse;
          group_left_cancellation ] );
    ( "monoid",
      per_instance
        (mappings Theory.monoid_instances)
        Theory.monoid
        [ monoid_right_identity; monoid_identity_unique ] );
    ( "ring",
      let rm = Theory.int_ring in
      per_instance [ (rm.Theory.r_name, rm) ] Theory.ring
        [ ring_mul_zero; ring_zero_mul ] );
    ( "orders",
      per_instance
        (named [ "int_le"; "string_le"; "rational_le" ])
        (fun leq -> Theory.total_order ~leq)
        (List.map
           (fun f leq -> f ~leq)
           [ strict_irreflexive; strict_transitive;
             strict_equiv_transitive ]) ) ]

let build_all instances =
  List.map
    (fun (name, build) ->
      let axioms, theorems = build () in
      (name, axioms, theorems))
    instances
