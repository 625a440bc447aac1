(* Tests for the concept-based rewriting optimizer: every Fig. 5 instance,
   guard soundness (rules must NOT fire on non-models), user rules,
   certification, and semantics preservation on random expressions. *)

open Gp_simplicissimus

let qtest = QCheck_alcotest.to_alcotest

let insts = Instances.standard (Gp_standard.Standard.world ())
let rules = Rules.standard

let rw e = (Engine.rewrite ~rules ~insts e).Engine.output

let check_rw name e expected =
  Alcotest.(check string) name (Expr.to_string expected) (Expr.to_string (rw e))

(* ------------------------------------------------------------------ *)
(* Fig. 5 row 1: x + 0 -> x for each Monoid instance                   *)
(* ------------------------------------------------------------------ *)

let test_fig5_monoid_instances () =
  let open Expr in
  (* i * 1 -> i *)
  check_rw "i*1 -> i" (binop "*" (ivar "i") (int 1)) (ivar "i");
  (* f * 1.0 -> f *)
  check_rw "f*1.0 -> f" (binop "*" (fvar "f") (float 1.0)) (fvar "f");
  (* b && true -> b *)
  check_rw "b&&true -> b" (binop "&&" (bvar "b") (bool true)) (bvar "b");
  (* i & ~0 -> i *)
  check_rw "i & allbits -> i" (binop "&" (ivar "i") (int (-1))) (ivar "i");
  (* concat(s, "") -> s *)
  check_rw "s^\"\" -> s" (binop "^" (svar "s") (string "")) (svar "s");
  (* A . I -> A *)
  check_rw "A.I -> A"
    (binop "." (mvar "A") (Ident ("matrix", ".")))
    (mvar "A");
  (* left identities too *)
  check_rw "1*i -> i" (binop "*" (int 1) (ivar "i")) (ivar "i");
  check_rw "0+i -> i" (binop "+" (int 0) (ivar "i")) (ivar "i")

(* ------------------------------------------------------------------ *)
(* Fig. 5 row 2: x + (-x) -> 0 for each Group instance                 *)
(* ------------------------------------------------------------------ *)

let test_fig5_group_instances () =
  let open Expr in
  (* i + (-i) -> 0 *)
  check_rw "i+(-i) -> 0"
    (binop "+" (ivar "i") (unop "neg" (ivar "i")))
    (int 0);
  (* f * (1/f) -> 1.0 *)
  check_rw "f*(inv f) -> 1.0"
    (binop "*" (fvar "f") (unop "inv" (fvar "f")))
    (float 1.0);
  (* r * r^-1 -> 1 *)
  check_rw "r*(inv r) -> 1"
    (binop "*" (qvar "r") (unop "inv" (qvar "r")))
    (rat Gp_algebra.Rational.one);
  (* A . A^-1 -> I (invertible matrices) *)
  let a = Var ("A", "invertible_matrix") in
  check_rw "A.A^-1 -> I"
    (Op (".", "invertible_matrix", [ a; Op ("inv", "invertible_matrix", [ a ]) ]))
    (Ident ("invertible_matrix", "."));
  (* left inverse *)
  check_rw "(-i)+i -> 0"
    (binop "+" (unop "neg" (ivar "i")) (ivar "i"))
    (int 0);
  (* double inverse *)
  check_rw "neg(neg i) -> i" (unop "neg" (unop "neg" (ivar "i"))) (ivar "i")

(* ------------------------------------------------------------------ *)
(* Guard soundness                                                     *)
(* ------------------------------------------------------------------ *)

(* int-with-times is a Monoid but NOT a Group: i * inv(i) must not
   rewrite. *)
let test_group_rule_does_not_fire_on_monoid () =
  let open Expr in
  let e = binop "*" (ivar "i") (Op ("inv", "int", [ ivar "i" ])) in
  Alcotest.(check string) "no rewrite" (Expr.to_string e)
    (Expr.to_string (rw e))

(* string has no inverse; matrix (non-invertible) is Monoid only. *)
let test_no_inverse_no_fire () =
  let open Expr in
  let e = binop "." (mvar "A") (Op ("inv", "matrix", [ mvar "A" ])) in
  Alcotest.(check string) "matrix monoid: A . inv A stays" (Expr.to_string e)
    (Expr.to_string (rw e))

(* x + (-y) with x <> y: the nonlinear pattern must not fire. *)
let test_nonlinear_pattern () =
  let open Expr in
  let e = binop "+" (ivar "x") (unop "neg" (ivar "y")) in
  Alcotest.(check string) "x+(-y) stays" (Expr.to_string e)
    (Expr.to_string (rw e));
  (* but structurally equal compound operands do fire *)
  let xy = binop "*" (ivar "x") (ivar "y") in
  let e2 = binop "+" xy (unop "neg" (binop "*" (ivar "x") (ivar "y"))) in
  check_rw "(x*y)+-(x*y) -> 0" e2 (int 0)

(* An unknown carrier: no instance entry, no rewriting at all. *)
let test_unknown_carrier () =
  let open Expr in
  let e = Op ("+", "widget", [ Var ("w", "widget"); Lit (VInt 0) ]) in
  Alcotest.(check string) "unknown type untouched" (Expr.to_string e)
    (Expr.to_string (rw e))

(* Guards ask the registry: a carrier declared a Monoid in a fork of the
   world rewrites against that fork, by its symbolic identity since it
   has no surface entry, and stays untouched against the world. *)
let test_guard_asks_registry () =
  let fork = Gp_concepts.Registry.fork (Instances.registry insts) in
  Gp_algebra.Decls.declare_carrier fork ~elem:"widget" ~op:"+" "Monoid";
  let open Expr in
  let e = Op ("+", "widget", [ Var ("w", "widget"); Ident ("widget", "+") ]) in
  let out insts =
    Expr.to_string (Engine.rewrite ~rules ~insts e).Engine.output
  in
  Alcotest.(check string) "world: untouched" (Expr.to_string e) (out insts);
  Alcotest.(check string) "fork: w" "w" (out (Instances.standard fork))

(* ------------------------------------------------------------------ *)
(* The surface table against the registry                              *)
(* ------------------------------------------------------------------ *)

(* The standard surface table names no structure the standard world does
   not declare, and omits no group's inverse: every entry's carrier is a
   Semigroup, every carrier the world models as a Group has an entry
   with an inverse symbol, and every ring pairs an AbelianGroup carrier
   with a Monoid carrier of the same element type. *)
let test_surface_matches_registry () =
  let open Gp_concepts in
  let world = Instances.registry insts in
  let models concept args =
    Check.models ~mode:Check.Nominal world concept args
  in
  let carrier ty op =
    [ Ctype.Named (Gp_algebra.Decls.carrier_name ~elem:ty ~op) ]
  in
  (* the element type a carrier "elem[op]" binds *)
  let elem_of = function
    | [ Ctype.Named name ] -> (
      match Registry.find_type world name with
      | Some { Registry.td_assoc; _ } -> (
        match List.assoc_opt "elem" td_assoc with
        | Some (Ctype.Named el) when String.starts_with ~prefix:(el ^ "[") name
          ->
          Some el
        | _ -> None)
      | None -> None)
    | _ -> None
  in
  let entries = Instances.entries insts in
  List.iter
    (fun (e : Instances.entry) ->
      Alcotest.(check bool) (e.e_type ^ "[" ^ e.e_op ^ "] is a Semigroup") true
        (models "Semigroup" e.e_carrier))
    entries;
  let groups =
    List.filter
      (fun (m : Registry.model) ->
        m.mo_concept = "Group" && elem_of m.mo_args <> None)
      (Registry.models world)
  in
  Alcotest.(check int) "group carriers" 6 (List.length groups);
  List.iter
    (fun (m : Registry.model) ->
      Alcotest.(check bool) "the group's entry has an inverse" true
        (List.exists
           (fun (e : Instances.entry) ->
             e.e_carrier = m.mo_args && e.e_inverse <> None)
           entries))
    groups;
  List.iter
    (fun (r : Gp_algebra.Decls.ring) ->
      let add = carrier r.r_elem r.r_add and mul = carrier r.r_elem r.r_mul in
      Alcotest.(check bool) (r.r_elem ^ " ring") true
        (models "AbelianGroup" add && models "Monoid" mul
        && elem_of add = Some r.r_elem
        && elem_of mul = Some r.r_elem
        && Instances.ring_for insts ~ty:r.r_elem ~op:r.r_mul = Some r))
    Gp_algebra.Decls.rings

(* ------------------------------------------------------------------ *)
(* Nested and repeated application                                     *)
(* ------------------------------------------------------------------ *)

let test_nested_fixpoint () =
  let open Expr in
  (* ((i + 0) * 1) + (-(i)) -> 0 : needs identity rules to expose the
     inverse redex *)
  let e =
    binop "+"
      (binop "*" (binop "+" (ivar "i") (int 0)) (int 1))
      (unop "neg" (ivar "i"))
  in
  check_rw "nested chain" e (int 0)

let test_step_trace_records_rules () =
  let open Expr in
  let e = binop "+" (binop "+" (ivar "i") (int 0)) (unop "neg" (ivar "i")) in
  let r = Engine.rewrite ~rules ~insts e in
  let names = List.map (fun s -> s.Engine.st_rule) r.Engine.steps in
  Alcotest.(check (list string)) "trace"
    [ "right-identity"; "right-inverse" ]
    names;
  Alcotest.(check int) "ops collapse" 0 r.Engine.ops_after

(* ------------------------------------------------------------------ *)
(* User rules: the LiDIA example                                       *)
(* ------------------------------------------------------------------ *)

let test_lidia_rule () =
  let open Expr in
  let f = Var ("f", "bigfloat") in
  let e = Op ("/", "bigfloat", [ float 1.0; f ]) in
  let out = rw e in
  Alcotest.(check string) "1.0/f -> Inverse(f)" "Inverse(f)"
    (Expr.to_string out);
  (* the rule is type-specific: plain float division is untouched *)
  let e2 = Op ("/", "float", [ float 1.0; fvar "g" ]) in
  Alcotest.(check string) "float / untouched" (Expr.to_string e2)
    (Expr.to_string (rw e2))

(* ------------------------------------------------------------------ *)
(* Ring annihilation rules                                             *)
(* ------------------------------------------------------------------ *)

let test_ring_annihilation () =
  let open Expr in
  check_rw "i*0 -> 0" (binop "*" (ivar "i") (int 0)) (int 0);
  check_rw "0*i -> 0" (binop "*" (int 0) (ivar "i")) (int 0);
  check_rw "f*0.0 -> 0.0" (binop "*" (fvar "f") (float 0.0)) (float 0.0);
  check_rw "r*0 -> 0"
    (binop "*" (qvar "r") (rat Gp_algebra.Rational.zero))
    (rat Gp_algebra.Rational.zero);
  (* nested: (i*0) + j -> j via annihilation then left identity *)
  check_rw "(i*0)+j -> j"
    (binop "+" (binop "*" (ivar "i") (int 0)) (ivar "j"))
    (ivar "j")

let test_ring_guard_sound () =
  let open Expr in
  (* strings have no ring: s ^ "" is identity (fires) but there is no
     annihilation notion — and an unregistered carrier stays untouched *)
  let e = Op ("*", "widget", [ Var ("w", "widget"); Lit (VInt 0) ]) in
  Alcotest.(check string) "no ring, no fire" (Expr.to_string e)
    (Expr.to_string (rw e));
  (* bool && has no ring registered either: b && false must NOT rewrite
     via the ring rule (no (bool, &&, ||) ring declared) *)
  let e2 = binop "&&" (bvar "b") (bool false) in
  Alcotest.(check string) "no bool ring" (Expr.to_string e2)
    (Expr.to_string (rw e2))

(* ------------------------------------------------------------------ *)
(* Certification                                                       *)
(* ------------------------------------------------------------------ *)

let test_certification () =
  let certs = Certify.certify_builtin () in
  List.iter
    (fun c ->
      match c.Certify.cert_verdict with
      | Gp_athena.Deduction.Proved -> ()
      | v ->
        Alcotest.failf "rule %s not certified: %a" c.Certify.cert_rule
          Gp_athena.Deduction.pp_verdict v)
    certs;
  Alcotest.(check (list string)) "one certification per builtin rule"
    (List.map (fun r -> r.Rules.rule_name) Rules.builtin)
    (List.map (fun c -> c.Certify.cert_rule) certs);
  Alcotest.(check bool) "every builtin rule kept" true
    (List.equal ( == ) Rules.builtin (Certify.certified certs Rules.builtin))

(* A concept rule no certification proves: right identity under a name
   of its own *)
let uncertified_rule =
  Rules.make ~name:"right-identity (uncertified)"
    ~guard:(Rules.Concept "Monoid")
    ~lhs:(Rules.P_op [ Rules.P_any "x"; Rules.P_identity ])
    ~rhs:(Rules.T_var "x") ()

(* A certified-only rewrite runs the engine on what [Certify.certified]
   keeps: an uncertified concept rule never fires, the same rule fires
   once a certification of its name proved. *)
let test_only_certified_mode () =
  let open Expr in
  let e = binop "*" (ivar "i") (int 1) in
  let rewrite certs =
    Expr.to_string
      (Engine.rewrite
         ~rules:(Certify.certified certs [ uncertified_rule ])
         ~insts e)
        .Engine.output
  in
  Alcotest.(check string) "uncertified rule skipped" (Expr.to_string e)
    (rewrite (Certify.certify_builtin ()));
  let proved =
    { Certify.cert_rule = uncertified_rule.Rules.rule_name;
      cert_theorem = "Monoid: right identity";
      cert_verdict = Gp_athena.Deduction.Proved }
  in
  Alcotest.(check string) "certified rule fires" "i" (rewrite [ proved ])

(* The standard set survives certification whole; a concept rule whose
   theorem fails, or that no certification names, is dropped. *)
let test_certified_rule_set () =
  let certs = Certify.certify_builtin () in
  let names rules = List.map (fun r -> r.Rules.rule_name) rules in
  Alcotest.(check (list string)) "every standard rule kept"
    (names Rules.standard)
    (names (Certify.certified certs Rules.standard));
  Alcotest.(check (list string)) "the user rule needs no certification"
    [ Rules.lidia_inverse.Rules.rule_name ]
    (names (Certify.certified [] Rules.standard));
  let failed =
    List.map
      (fun c ->
        if c.Certify.cert_rule = Rules.right_inverse.Rules.rule_name then
          { c with
            Certify.cert_verdict = Gp_athena.Deduction.Improper "no proof" }
        else c)
      certs
  in
  Alcotest.(check bool) "a failed theorem drops its rule" false
    (List.memq Rules.right_inverse (Certify.certified failed Rules.standard));
  Alcotest.(check int) "and only that rule"
    (List.length Rules.standard - 1)
    (List.length (Certify.certified failed Rules.standard));
  Alcotest.(check (list string)) "an unnamed concept rule is dropped"
    (names Rules.standard)
    (names (Certify.certified certs (Rules.standard @ [ uncertified_rule ])))

(* Discharging declares into the registry it is given, and only there. *)
let test_discharge_instance_axioms () =
  let world () =
    let reg = Gp_concepts.Registry.create () in
    Gp_algebra.Decls.declare reg;
    reg
  in
  let warned reg =
    List.exists
      (function
        | Gp_concepts.Check.Axiom_asserted_not_proved
            { axiom = "right_inverse"; _ } ->
          true
        | _ -> false)
      (Gp_concepts.Check.check reg "Group"
         [ Gp_concepts.Ctype.Named "int[+]" ])
        .Gp_concepts.Check.rep_warnings
  in
  let reg = world () and other = world () in
  Alcotest.(check bool) "asserted, not proved" true (warned reg);
  let discharged = Certify.discharge_instance_axioms reg in
  Alcotest.(check (list (pair string string))) "the exact mapped carriers"
    [ ("int[+]", "right_identity"); ("int[+]", "right_inverse");
      ("int[*]", "right_identity"); ("int[&]", "right_identity");
      ("bool[&&]", "right_identity"); ("string[^]", "right_identity");
      ("rational[*]", "right_identity"); ("rational[*]", "right_inverse");
      ("matrix[.]", "right_identity") ]
    discharged;
  Alcotest.(check bool) "int[+] right inverse discharged" false (warned reg);
  Alcotest.(check bool) "another registry still warns" true (warned other)

(* ------------------------------------------------------------------ *)
(* Surface syntax                                                      *)
(* ------------------------------------------------------------------ *)

let test_sparser_basics () =
  Alcotest.(check string) "precedence" "(y + (x * 1))"
    (Expr.to_string (Sparser.parse "y + x*1"));
  Alcotest.(check string) "parens" "((y + x) * 1)"
    (Expr.to_string (Sparser.parse "(y + x) * 1"));
  Alcotest.(check string) "minus desugars" "(x + neg(y))"
    (Expr.to_string (Sparser.parse "x - y"));
  Alcotest.(check string) "typed var + float lit" "(f * 1)"
    (Expr.to_string (Sparser.parse "f:float * 1.0"));
  Alcotest.(check string) "unary application" "neg(x)"
    (Expr.to_string (Sparser.parse "neg(x)"));
  Alcotest.(check string) "strings and concat" "(s ^ \"\")"
    (Expr.to_string (Sparser.parse {|s:string ^ ""|}))

let test_sparser_type_mismatch () =
  List.iter
    (fun src ->
      match Sparser.parse src with
      | e -> Alcotest.failf "accepted %S as %s" src (Expr.to_string e)
      | exception Sparser.Parse_error _ -> ())
    [ "x + 1.0"; "x:float + 1"; "b:bool + 1"; "x + "; "(x"; "x ~ y" ]

(* an out-of-range integer or a malformed float is a Parse_error at the
   literal, naming it, never a Failure from the number conversion *)
let test_sparser_numeric_literals () =
  List.iter
    (fun (src, expected) ->
      match Sparser.parse src with
      | e -> Alcotest.failf "accepted %S as %s" src (Expr.to_string e)
      | exception Sparser.Parse_error { line; col; message } ->
        Alcotest.(check string) src expected
          (Printf.sprintf "%d:%d: %s" line col message))
    [ ("x + 99999999999999999999999",
       "1:5: integer literal 99999999999999999999999 is out of range");
      ("x * 1.2.3", "1:5: malformed number 1.2.3");
      ("f:float * 1.0.", "1:11: malformed number 1.0.");
      ("4611686018427387904 * y",
       "1:1: integer literal 4611686018427387904 is out of range") ];
  Alcotest.(check string) "max_int still parses" "(4611686018427387903 * y)"
    (Expr.to_string (Sparser.parse "4611686018427387903 * y"))

let test_sparser_pipeline () =
  (* parse, rewrite, evaluate end-to-end *)
  let e = Sparser.parse "(x*1 + 0) + (0 - x)" in
  let r = Engine.rewrite ~rules ~insts e in
  Alcotest.(check string) "collapses to 0" "0"
    (Expr.to_string r.Engine.output);
  let v = Eval.eval ~env:[ ("x", Expr.VInt 9) ] e in
  Alcotest.(check bool) "original also evaluates to 0" true
    (Expr.value_equal v (Expr.VInt 0))

(* ------------------------------------------------------------------ *)
(* Semantics preservation (property)                                   *)
(* ------------------------------------------------------------------ *)

(* Random int expressions over +, *, &, |, neg with variables x,y,z and
   identity-heavy literals (to give the rules targets). *)
let int_expr_gen =
  let open QCheck.Gen in
  sized (fun n ->
      fix
        (fun self n ->
          if n <= 1 then
            oneof
              [
                map Expr.int (oneof [ return 0; return 1; return (-1); int_range (-9) 9 ]);
                oneofl [ Expr.ivar "x"; Expr.ivar "y"; Expr.ivar "z" ];
              ]
          else
            oneof
              [
                map2
                  (fun op (a, b) -> Expr.binop op a b)
                  (oneofl [ "+"; "*"; "&"; "|" ])
                  (pair (self (n / 2)) (self (n / 2)));
                map (fun a -> Expr.unop "neg" a) (self (n - 1));
              ])
        (min n 20))

let int_expr = QCheck.make ~print:Expr.to_string int_expr_gen

let semantics_prop =
  qtest
    (QCheck.Test.make ~name:"rewriting preserves evaluation (int)" ~count:500
       int_expr (fun e ->
         let env = [ ("x", Expr.VInt 3); ("y", Expr.VInt (-7)); ("z", Expr.VInt 11) ] in
         let before = Eval.eval ~env e in
         let after = Eval.eval ~env (rw e) in
         Expr.value_equal before after))

let shrink_prop =
  qtest
    (QCheck.Test.make ~name:"rewriting never grows the expression" ~count:500
       int_expr (fun e ->
         Expr.op_count (rw e) <= Expr.op_count e))

let idempotent_prop =
  qtest
    (QCheck.Test.make ~name:"rewriting is idempotent" ~count:300 int_expr
       (fun e ->
         let once = rw e in
         Expr.equal (rw once) once))

(* rational expressions: + * neg inv with nonzero literals *)
let rat_expr_gen =
  let open QCheck.Gen in
  sized (fun n ->
      fix
        (fun self n ->
          if n <= 1 then
            oneof
              [
                map
                  (fun (a, b) ->
                    Expr.rat (Gp_algebra.Rational.make a b))
                  (pair (int_range 1 9) (int_range 1 9));
                oneofl [ Expr.qvar "p"; Expr.qvar "q" ];
              ]
          else
            oneof
              [
                map2
                  (fun op (a, b) -> Expr.binop op a b)
                  (oneofl [ "+"; "*" ])
                  (pair (self (n / 2)) (self (n / 2)));
                map (fun a -> Expr.unop "neg" a) (self (n - 1));
              ])
        (min n 14))

let rat_semantics_prop =
  qtest
    (QCheck.Test.make ~name:"rewriting preserves evaluation (rational)"
       ~count:300
       (QCheck.make ~print:Expr.to_string rat_expr_gen)
       (fun e ->
         let env =
           [ ("p", Expr.VRat (Gp_algebra.Rational.make 2 3));
             ("q", Expr.VRat (Gp_algebra.Rational.make (-5) 4)) ]
         in
         Expr.value_equal (Eval.eval ~env e) (Eval.eval ~env (rw e))))

(* Telemetry transparency: the instrumented entry point returns the same
   result with no sink (flag-check-only path), with a sink installed
   (spans + counters recorded), and as the bare uninstrumented core. *)
let telemetry_transparent_prop =
  qtest
    (QCheck.Test.make ~name:"telemetry never changes rewrite results"
       ~count:200 int_expr (fun e ->
         let r_base = Engine.rewrite_uninstrumented ~rules ~insts e in
         let r_off = Engine.rewrite ~rules ~insts e in
         let r_on =
           Gp_telemetry.Tel.with_installed (fun _sink ->
               Engine.rewrite ~rules ~insts e)
         in
         r_base = r_off && r_off = r_on))

(* ------------------------------------------------------------------ *)
(* Budget exhaustion: payload of Did_not_terminate                     *)
(* ------------------------------------------------------------------ *)

(* A deliberately looping user rule: f(x, y) -> f(y, x) swaps forever.
   The engine must stop at its step budget and report how far it got. *)
let test_budget_exhaustion () =
  let swap =
    Rules.make ~name:"swap-forever" ~guard:(Rules.Carrier ("int", "f"))
      ~lhs:(Rules.P_exact ("f", [ Rules.P_any "x"; Rules.P_any "y" ]))
      ~rhs:(Rules.T_exact ("f", [ Rules.T_var "y"; Rules.T_var "x" ]))
      ()
  in
  let e = Expr.Op ("f", "int", [ Expr.ivar "a"; Expr.ivar "b" ]) in
  let run engine =
    match engine ~rules:(rules @ [ swap ]) ~insts e with
    | (_ : Engine.result) -> Alcotest.fail "looping rule terminated"
    | exception Engine.Did_not_terminate { dnt_input; dnt_partial; dnt_steps }
      ->
      (dnt_input, dnt_partial, dnt_steps)
  in
  let input, partial, steps =
    run (fun ~rules ~insts e -> Engine.rewrite ~rules ~insts e)
  in
  Alcotest.(check bool) "input preserved" true (Expr.equal input e);
  Alcotest.(check int) "steps accumulated up to the budget" 9_999
    (List.length steps);
  (* every recorded step is the swap rule on the int carrier *)
  List.iter
    (fun (s : Engine.step) ->
      Alcotest.(check string) "rule name" "swap-forever" s.Engine.st_rule)
    steps;
  (* the partial term is well-formed: still an f-node over {a, b} *)
  (match partial with
  | Expr.Op ("f", "int", [ x; y ]) ->
    Alcotest.(check bool) "args are a permutation of {a, b}" true
      ((Expr.equal x (Expr.ivar "a") && Expr.equal y (Expr.ivar "b"))
      || (Expr.equal x (Expr.ivar "b") && Expr.equal y (Expr.ivar "a")))
  | other ->
    Alcotest.failf "unexpected partial term %s" (Expr.to_string other));
  (* the reference engine exhausts identically *)
  let _, ref_partial, ref_steps =
    run (fun ~rules ~insts e -> Oracles.rewrite_reference ~rules ~insts e)
  in
  Alcotest.(check int) "reference steps" (List.length steps)
    (List.length ref_steps);
  Alcotest.(check bool) "reference partial" true
    (Expr.equal partial ref_partial)

(* ------------------------------------------------------------------ *)
(* Instance-table index invariants                                     *)
(* ------------------------------------------------------------------ *)

let test_entries_in_order () =
  let t = Instances.create (Gp_concepts.Registry.create ()) in
  Instances.add t ~ty:"a" ~op:"+" ();
  Instances.add t ~ty:"b" ~op:"*" ();
  Alcotest.(check (list string)) "insertion order" [ "a"; "b" ]
    (List.map (fun e -> e.Instances.e_type) (Instances.entries t));
  Instances.add t ~ty:"c" ~op:"." ();
  Alcotest.(check (list string)) "order after mutation" [ "a"; "b"; "c" ]
    (List.map (fun e -> e.Instances.e_type) (Instances.entries t))

(* ------------------------------------------------------------------ *)
(* Indexed engine == linear-scan reference (property)                  *)
(* ------------------------------------------------------------------ *)

(* Random worlds over a small pool of types/ops: registry carriers
   declared at random concepts, and surface entries with random
   identities and inverse ops — a carrier may have either or both.
   Random expressions run over the same symbols. The indexed engine must
   agree with the retained seed implementation step-for-step, both
   asking the world's registry — including after interleaved registry
   and table mutations (stale-index detection). *)

let world_gen =
  let open QCheck.Gen in
  let tys = [ "int"; "float"; "t0"; "t1"; "t2" ] in
  let ops = [ "+"; "*"; "op0"; "op1"; "op2" ] in
  let invs = [ "neg"; "inv"; "iop0" ] in
  (* [None]: the registry declares no model of the carrier *)
  let concept =
    oneofl
      [ None; Some "Semigroup"; Some "Monoid"; Some "Group";
        Some "AbelianGroup" ]
  in
  let decl =
    oneofl tys >>= fun ty ->
    oneofl ops >>= fun op ->
    concept >>= fun concept ->
    frequency [ (4, return true); (1, return false) ] >>= fun surface ->
    oneofl [ None; Some (Expr.VInt 0); Some (Expr.VInt 1) ]
    >>= fun identity ->
    (match concept with
    | Some ("Group" | "AbelianGroup") -> map (fun i -> Some i) (oneofl invs)
    | Some _ | None -> oneofl [ None; Some "neg" ])
    >>= fun inverse -> return (ty, op, concept, surface, identity, inverse)
  in
  pair (list_size (int_range 1 12) decl) (list_size (int_range 0 4) decl)

let world_expr_gen =
  let open QCheck.Gen in
  let tys = [ "int"; "float"; "t0"; "t1"; "t2" ] in
  let ops = [ "+"; "*"; "op0"; "op1"; "op2" ] in
  let invs = [ "neg"; "inv"; "iop0" ] in
  sized (fun n ->
      fix
        (fun self n ->
          if n <= 1 then
            oneof
              [
                map Expr.int (int_range (-3) 3);
                oneofl [ Expr.ivar "x"; Expr.ivar "y" ];
                map2
                  (fun t o -> Expr.Ident (t, o))
                  (oneofl tys) (oneofl ops);
              ]
          else
            oneof
              [
                (oneofl ops >>= fun o ->
                 oneofl tys >>= fun t ->
                 map2
                   (fun a b -> Expr.Op (o, t, [ a; b ]))
                   (self (n / 2)) (self (n / 2)));
                (oneofl invs >>= fun o ->
                 oneofl tys >>= fun t ->
                 map (fun a -> Expr.Op (o, t, [ a ])) (self (n - 1)));
              ])
        (min n 16))

(* A carrier's first declaration is its registry model (a registry
   never retracts one); a surface entry may be redeclared, and the most
   recent one wins. *)
let declare t decls =
  let reg = Instances.registry t in
  List.iter
    (fun (ty, op, concept, surface, identity, inverse) ->
      (match concept with
      | Some c
        when not
               (Gp_concepts.Registry.has_type reg
                  (Gp_algebra.Decls.carrier_name ~elem:ty ~op)) ->
        Gp_algebra.Decls.declare_carrier reg ~elem:ty ~op c
      | Some _ | None -> ());
      if surface then Instances.add t ?identity ?inverse ~ty ~op ())
    decls

let build_world (decls, _) =
  let reg = Gp_concepts.Registry.create () in
  List.iter (Gp_concepts.Registry.declare_concept reg)
    Gp_algebra.Decls.all_concepts;
  let t = Instances.create reg in
  declare t decls;
  t

let apply_second_batch t (_, extra) = declare t extra

let step_equal (a : Engine.step) (b : Engine.step) =
  String.equal a.Engine.st_rule b.Engine.st_rule
  && a.Engine.st_carrier = b.Engine.st_carrier
  && Expr.equal a.Engine.st_before b.Engine.st_before
  && Expr.equal a.Engine.st_after b.Engine.st_after

let engines_agree ~rules ~insts e =
  let run f =
    try Ok (f ())
    with Engine.Did_not_terminate { dnt_partial; dnt_steps; _ } ->
      Error (dnt_partial, List.length dnt_steps)
  in
  let a = run (fun () -> Engine.rewrite ~rules ~insts e) in
  let b = run (fun () -> Oracles.rewrite_reference ~rules ~insts e) in
  match a, b with
  | Ok ra, Ok rb ->
    Expr.equal ra.Engine.output rb.Engine.output
    && List.length ra.Engine.steps = List.length rb.Engine.steps
    && List.for_all2 step_equal ra.Engine.steps rb.Engine.steps
    && ra.Engine.ops_after = rb.Engine.ops_after
  | Error (pa, na), Error (pb, nb) -> Expr.equal pa pb && na = nb
  | Ok _, Error _ | Error _, Ok _ -> false

let equiv_rules =
  Rules.standard
  @ [
      (* a user rule whose exact head symbol collides with a generated op *)
      Rules.make ~name:"u0-project" ~guard:(Rules.Carrier ("t0", "op0"))
        ~lhs:(Rules.P_exact ("op0", [ Rules.P_any "x"; Rules.P_any "y" ]))
        ~rhs:(Rules.T_var "x") ();
    ]

let engine_equiv_prop =
  qtest
    (QCheck.Test.make
       ~name:"indexed rewrite == linear-scan reference (random worlds)"
       ~count:300
       (QCheck.pair
          (QCheck.make world_gen)
          (QCheck.make ~print:Expr.to_string world_expr_gen))
       (fun (world, e) ->
         let insts = build_world world in
         engines_agree ~rules:equiv_rules ~insts e
         && begin
              (* mutate the registry and the table, then re-check: the
                 indexes (by_key, by_inverse) and the registry's verdict
                 memo must track the mutation *)
              apply_second_batch insts world;
              engines_agree ~rules:equiv_rules ~insts e
            end))

let lookup_equiv_prop =
  qtest
    (QCheck.Test.make
       ~name:"indexed find/inverse_carriers == entry-list scan"
       ~count:300 (QCheck.make world_gen)
       (fun world ->
         let insts = build_world world in
         let check () =
           let es = Instances.entries insts in
           let recent_first = List.rev es in
           List.for_all
             (fun (e : Instances.entry) ->
               let ty = e.Instances.e_type and op = e.Instances.e_op in
               (* find: most recent declaration wins *)
               let ref_find =
                 List.find_opt
                   (fun (e' : Instances.entry) ->
                     String.equal e'.Instances.e_type ty
                     && String.equal e'.Instances.e_op op)
                   recent_first
               in
               Instances.find insts ~ty ~op = ref_find
               (* inverse_carriers: insertion-order filter of the list *)
               && Instances.inverse_carriers insts ~ty ~op
                  = List.filter_map
                      (fun (e' : Instances.entry) ->
                        if
                          String.equal e'.Instances.e_type ty
                          && e'.Instances.e_inverse = Some op
                        then Some (ty, e'.Instances.e_op)
                        else None)
                      es)
             es
         in
         check ()
         && begin
              apply_second_batch insts world;
              check ()
            end))

let test_matrix_eval () =
  let open Expr in
  let q = Gp_algebra.Rational.of_int in
  let m = Gp_algebra.Instances.Qmat.of_rows [ [ q 1; q 2 ]; [ q 3; q 4 ] ] in
  let e = binop "." (Lit (VMat m)) (Ident ("matrix", ".")) in
  let v = Eval.eval ~env:[] ~mat_dim:2 e in
  Alcotest.(check bool) "M . I = M" true
    (Expr.value_equal v (VMat m));
  (* and the rewriter removes the multiplication entirely *)
  let r = Engine.rewrite ~rules ~insts e in
  Alcotest.(check int) "0 ops after" 0 r.Engine.ops_after

let () =
  Alcotest.run "gp_simplicissimus"
    [
      ( "fig5 instances",
        [
          Alcotest.test_case "monoid row" `Quick test_fig5_monoid_instances;
          Alcotest.test_case "group row" `Quick test_fig5_group_instances;
        ] );
      ( "guard soundness",
        [
          Alcotest.test_case "group rule vs monoid" `Quick
            test_group_rule_does_not_fire_on_monoid;
          Alcotest.test_case "no inverse no fire" `Quick
            test_no_inverse_no_fire;
          Alcotest.test_case "nonlinear pattern" `Quick test_nonlinear_pattern;
          Alcotest.test_case "unknown carrier" `Quick test_unknown_carrier;
          Alcotest.test_case "guard asks the registry" `Quick
            test_guard_asks_registry;
          Alcotest.test_case "surface table matches the registry" `Quick
            test_surface_matches_registry;
        ] );
      ( "engine",
        [
          Alcotest.test_case "nested fixpoint" `Quick test_nested_fixpoint;
          Alcotest.test_case "step trace" `Quick test_step_trace_records_rules;
          Alcotest.test_case "matrix eval" `Quick test_matrix_eval;
          Alcotest.test_case "budget exhaustion payload" `Quick
            test_budget_exhaustion;
        ] );
      ( "indexes",
        [
          Alcotest.test_case "entries in insertion order" `Quick
            test_entries_in_order;
          engine_equiv_prop;
          lookup_equiv_prop;
        ] );
      ("user rules", [ Alcotest.test_case "lidia" `Quick test_lidia_rule ]);
      ( "ring rules",
        [
          Alcotest.test_case "annihilation" `Quick test_ring_annihilation;
          Alcotest.test_case "ring guard" `Quick test_ring_guard_sound;
        ] );
      ( "surface syntax",
        [
          Alcotest.test_case "basics" `Quick test_sparser_basics;
          Alcotest.test_case "type mismatch" `Quick
            test_sparser_type_mismatch;
          Alcotest.test_case "numeric literals" `Quick
            test_sparser_numeric_literals;
          Alcotest.test_case "pipeline" `Quick test_sparser_pipeline;
        ] );
      ( "certification",
        [
          Alcotest.test_case "builtin certified" `Quick test_certification;
          Alcotest.test_case "only-certified mode" `Quick
            test_only_certified_mode;
          Alcotest.test_case "certified rule set" `Quick
            test_certified_rule_set;
          Alcotest.test_case "instance axioms discharged" `Quick
            test_discharge_instance_axioms;
        ] );
      ( "properties",
        [ semantics_prop; shrink_prop; idempotent_prop; rat_semantics_prop;
          telemetry_transparent_prop ] );
    ]
