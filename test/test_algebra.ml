(* Tests for gp_algebra: every axiom of each carrier row's and ring's
   refinement chain evaluated on generated values (qcheck), rationals,
   matrices, power functors. *)

open Gp_algebra
module Theory = Gp_athena.Theory

let qtest = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* The registry's axioms on each row's values                          *)
(* ------------------------------------------------------------------ *)

let small_int = QCheck.int_range (-1000) 1000

let rational_gen =
  QCheck.map
    (fun (a, b) -> Rational.make a (if b = 0 then 1 else b))
    (QCheck.pair (QCheck.int_range (-50) 50)
       (QCheck.int_range (-50) 50))

(* signed powers of two: float sums of three, products and inverses stay
   exact *)
let float_gen =
  QCheck.map
    (fun (neg, k) -> (if neg then -1.0 else 1.0) *. Float.ldexp 1.0 k)
    (QCheck.pair QCheck.bool (QCheck.int_range (-20) 20))

let qmat_gen n =
  QCheck.map
    (fun seed ->
      let st = Random.State.make [| seed |] in
      Instances.Qmat.init n (fun _ _ ->
          Rational.of_int (Random.State.int st 7 - 3)))
    QCheck.int

(* L * U with L unit lower and U upper triangular over a nonzero
   diagonal: invertible *)
let invertible_gen n =
  QCheck.map
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let q () = Rational.of_int (Random.State.int st 7 - 3) in
      let l = Instances.Qmat.init n (fun i j ->
          if i = j then Rational.one else if i > j then q () else Rational.zero)
      and u = Instances.Qmat.init n (fun i j ->
          if i = j then Rational.of_int (1 + Random.State.int st 3)
          else if i < j then q () else Rational.zero)
      in
      Instances.Qmat.mul l u)
    QCheck.int

let values gen inj =
  QCheck.set_print
    (Fmt.to_to_string Gp_simplicissimus.Expr.pp_value)
    (QCheck.map inj gen)

(* A row's values: exact rows over their element type, the
   multiplicative groups without the values they cannot invert, floats
   on powers of two where their axioms hold exactly. *)
let row_gen (c : Decls.carrier) =
  match (c.c_elem, c.c_op) with
  | "int", _ -> values QCheck.int (fun i -> Decls.VInt i)
  | "bool", _ -> values QCheck.bool (fun b -> Decls.VBool b)
  | "string", _ ->
    values
      (QCheck.string_of_size (QCheck.Gen.int_range 0 8))
      (fun s -> Decls.VString s)
  | "float", _ -> values float_gen (fun f -> Decls.VFloat f)
  | "rational", "+" -> values rational_gen (fun r -> Decls.VRat r)
  | "rational", _ ->
    values
      (QCheck.map
         (fun r -> if Rational.equal r Rational.zero then Rational.one else r)
         rational_gen)
      (fun r -> Decls.VRat r)
  | "matrix", _ -> values (qmat_gen 3) (fun m -> Decls.VMat m)
  | _ -> values (invertible_gen 3) (fun m -> Decls.VMat m)

let rec arity = function Gp_athena.Logic.Forall (_, p) -> 1 + arity p | _ -> 0

(* The axiom on the first of [vs], as many as it quantifies. *)
let holds_on interp vs (ax : Theory.axiom) =
  Oracles.holds interp ax.ax_prop
    (List.filteri (fun i _ -> i < arity ax.ax_prop) vs)

let words name = String.map (function '_' -> ' ' | ch -> ch) name

let law ?(count = 200) name gen interp axioms =
  qtest
    (QCheck.Test.make ~name ~count (QCheck.triple gen gen gen)
       (fun (a, b, c) -> List.for_all (holds_on interp [ a; b; c ]) axioms))

(* Every row as a monoid, and a group row also as the group it is. *)
let instance_tests =
  List.concat_map
    (fun (c : Decls.carrier) ->
      let gen = row_gen c
      and interp = Oracles.row_interpretation c in
      let view prefix concept =
        List.map
          (fun (ax : Theory.axiom) ->
            law
              (Printf.sprintf "(%s,%s)%s %s" c.c_elem c.c_op prefix
                 (words ax.ax_name))
              gen interp [ ax ])
          (Oracles.chain concept)
      in
      view "" "Monoid"
      @ if c.c_inverse = None then [] else view " group" c.c_concept)
    Decls.carriers

(* Each ring's Ring axioms, and a field's (a ring whose product is a
   group) Field axioms too, grouped under their labels. *)
let field_tests =
  let label = function
    | "left_distributivity" | "right_distributivity" -> "distributivity"
    | "mul_commutativity" -> "mul commutative"
    | name -> words name
  in
  List.concat_map
    (fun (r : Decls.ring) ->
      let row op =
        List.find
          (fun (c : Decls.carrier) -> c.c_elem = r.r_elem && c.c_op = op)
          Decls.carriers
      in
      let field = (row r.r_mul).c_inverse <> None in
      let axioms = Oracles.chain (if field then "Field" else "Ring") in
      let labels =
        List.sort_uniq compare
          (List.map (fun (ax : Theory.axiom) -> label ax.ax_name) axioms)
      in
      List.map
        (fun l ->
          law (r.r_elem ^ " " ^ l) (row_gen (row r.r_add))
            (Oracles.ring_interpretation r)
            (List.filter
               (fun (ax : Theory.axiom) -> label ax.ax_name = l)
               axioms))
        labels)
    Decls.rings

(* ------------------------------------------------------------------ *)
(* Rational basics                                                     *)
(* ------------------------------------------------------------------ *)

let test_rational_normalisation () =
  Alcotest.(check bool) "2/4 = 1/2" true
    (Rational.equal (Rational.make 2 4) (Rational.make 1 2));
  Alcotest.(check bool) "negative denominator normalised" true
    (Rational.equal (Rational.make 1 (-2)) (Rational.make (-1) 2));
  Alcotest.(check string) "pp integer" "3"
    (Rational.to_string (Rational.of_int 3));
  Alcotest.(check string) "pp fraction" "-1/2"
    (Rational.to_string (Rational.make 1 (-2)))

let test_rational_division_by_zero () =
  Alcotest.check_raises "make x 0" Division_by_zero (fun () ->
      ignore (Rational.make 1 0));
  Alcotest.check_raises "inv 0" Division_by_zero (fun () ->
      ignore (Rational.inv Rational.zero))

let test_rational_arith () =
  let open Rational in
  let half = make 1 2 and third = make 1 3 in
  Alcotest.(check bool) "1/2+1/3 = 5/6" true (equal (add half third) (make 5 6));
  Alcotest.(check bool) "1/2*1/3 = 1/6" true (equal (mul half third) (make 1 6));
  Alcotest.(check bool) "div" true (equal (div half third) (make 3 2));
  Alcotest.(check int) "compare" (-1) (Rational.compare third half)

(* ------------------------------------------------------------------ *)
(* Matrices                                                            *)
(* ------------------------------------------------------------------ *)

let test_matrix_identity_monoid () =
  let open Instances.Qmat in
  let q = Rational.of_int in
  let a = of_rows [ [ q 1; q 2 ]; [ q 3; q 4 ] ] in
  Alcotest.(check bool) "A*I = A" true (equal (mul a (identity 2)) a);
  Alcotest.(check bool) "I*A = A" true (equal (mul (identity 2) a) a)

let test_matrix_inverse () =
  let open Instances.Qmat in
  let q = Rational.of_int in
  let a = of_rows [ [ q 1; q 2 ]; [ q 3; q 4 ] ] in
  let ainv = inverse a in
  Alcotest.(check bool) "A * A^-1 = I" true (is_identity (mul a ainv));
  Alcotest.(check bool) "A^-1 * A = I" true (is_identity (mul ainv a))

let test_matrix_singular () =
  let open Instances.Qmat in
  let q = Rational.of_int in
  let s = of_rows [ [ q 1; q 2 ]; [ q 2; q 4 ] ] in
  Alcotest.check_raises "singular raises" Singular (fun () ->
      ignore (inverse s))

let qmat_gen n =
  QCheck.map
    (fun seed ->
      let st = Random.State.make [| seed |] in
      Instances.Qmat.init n (fun _ _ ->
          Rational.of_int (Random.State.int st 7 - 3)))
    QCheck.int

let matrix_prop_tests =
  [
    qtest
      (QCheck.Test.make ~name:"matrix mul associative" ~count:50
         (QCheck.triple (qmat_gen 3) (qmat_gen 3) (qmat_gen 3))
         (fun (a, b, c) ->
           Instances.Qmat.(equal (mul (mul a b) c) (mul a (mul b c)))));
    qtest
      (QCheck.Test.make ~name:"invertible => A*A^-1=I" ~count:50 (qmat_gen 3)
         (fun a ->
           match Instances.Qmat.inverse a with
           | ainv -> Instances.Qmat.(is_identity (mul a ainv))
           | exception Instances.Qmat.Singular -> true));
    qtest
      (QCheck.Test.make ~name:"distributivity A(B+C)=AB+AC" ~count:50
         (QCheck.triple (qmat_gen 3) (qmat_gen 3) (qmat_gen 3))
         (fun (a, b, c) ->
           Instances.Qmat.(equal (mul a (add b c)) (add (mul a b) (mul a c)))));
  ]

(* ------------------------------------------------------------------ *)
(* Power functor                                                       *)
(* ------------------------------------------------------------------ *)

let test_power () =
  let module P = Sigs.Power (Instances.Int_mul) in
  Alcotest.(check int) "2^10" 1024 (P.power 2 10);
  Alcotest.(check int) "x^0 = id" 1 (P.power 7 0);
  let module PS = Sigs.Power (Instances.String_concat) in
  Alcotest.(check string) "string power" "ababab" (PS.power "ab" 3);
  Alcotest.check_raises "negative exponent"
    (Invalid_argument "Power.power: negative exponent") (fun () ->
      ignore (P.power 2 (-1)))

let test_group_power_negative () =
  let module GP = Sigs.Group_power (Instances.Int_add) in
  Alcotest.(check int) "3 * 5 via power" 15 (GP.power 3 5);
  Alcotest.(check int) "3 * -5 via power" (-15) (GP.power 3 (-5))

let power_prop =
  qtest
    (QCheck.Test.make ~name:"power = repeated op" ~count:200
       (QCheck.pair (QCheck.int_range (-9) 9) (QCheck.int_range 0 12))
       (fun (x, e) ->
         let module P = Sigs.Power (Instances.Int_add) in
         P.power x e = x * e))

(* ------------------------------------------------------------------ *)
(* Derived structures                                                  *)
(* ------------------------------------------------------------------ *)

let test_additive_multiplicative_views () =
  let module A = Sigs.Additive (Instances.Int_ring) in
  let module M = Sigs.Multiplicative (Instances.Int_ring) in
  Alcotest.(check int) "additive id" 0 A.id;
  Alcotest.(check int) "mult id" 1 M.id;
  Alcotest.(check int) "additive inverse" (-5) (A.inverse 5);
  let module U = Sigs.Units (Rational.Field) in
  Alcotest.(check bool) "units inverse" true
    (Rational.equal (U.inverse (Rational.make 2 3)) (Rational.make 3 2))

(* The parsed Fig. 6 axioms, and the goals of the theorems derived from
   them, on ints. *)
let swo_tests =
  let open Gp_athena in
  let lt = "lt" in
  let axioms = Theory.strict_weak_order ~lt in
  let interp f args =
    match (f, args) with
    | "lt", [ Decls.VInt a; Decls.VInt b ] -> Decls.VBool (a < b)
    | _ -> invalid_arg f
  in
  let law name p =
    law name (values small_int (fun i -> Decls.VInt i)) interp
      [ { Theory.ax_name = name; ax_prop = p } ]
  in
  [
    law "int < irreflexive" (Theory.find axioms "irreflexivity");
    law "int < transitive" (Theory.find axioms "transitivity");
    law "equivalence symmetric (derived)" (Theorems.swo_e_symmetric ~lt).goal;
    law "equivalence reflexive (derived)" (Theorems.swo_e_reflexive ~lt).goal;
    law "equivalence transitive" (Theorems.swo_e_transitive ~lt).goal;
  ]

(* ------------------------------------------------------------------ *)
(* The carrier table against the other places a carrier appears        *)
(* ------------------------------------------------------------------ *)

let row_of ~elem ~op =
  List.find
    (fun (c : Decls.carrier) ->
      String.equal c.c_elem elem && String.equal c.c_op op)
    Decls.carriers

(* An executable instance agrees with its row: its [id] is the row's
   identity, it has an inverse exactly when the row names one, and with
   the row's identity its operations satisfy every axiom of the row's
   concept (the Monoid chain for a monoid row). *)
let module_row (type a) ~elem ~op lit inj
    (module M : Sigs.MONOID with type t = a) ?inverse () =
  let row = row_of ~elem ~op in
  let name = Decls.carrier_name ~elem ~op in
  let row_id = Option.get row.c_identity in
  let prj v =
    match lit v with Some x -> x | None -> Alcotest.failf "%s: a stray value" name
  in
  let interp f args =
    match (f, List.map prj args, inverse) with
    | "op", [ a; b ], _ -> inj (M.op a b)
    | "inverse", [ a ], Some inv -> inj (inv a)
    | "id", [], _ -> row_id
    | _ -> invalid_arg f
  in
  [
    Alcotest.test_case (name ^ " row") `Quick (fun () ->
        Alcotest.(check bool) "id is the row's identity" true
          (M.equal M.id (prj row_id));
        Alcotest.(check bool) "an inverse exactly when the row has one" true
          (Option.is_some row.c_inverse = Option.is_some inverse));
    law ~count:100
      (name ^ if inverse = None then " row identity laws" else " row group laws")
      (row_gen row) interp (Oracles.chain row.c_concept);
  ]

let int_lit = function Decls.VInt i -> Some i | _ -> None
let bool_lit = function Decls.VBool b -> Some b | _ -> None
let string_lit = function Decls.VString s -> Some s | _ -> None
let float_lit = function Decls.VFloat f -> Some f | _ -> None
let vint i = Decls.VInt i
let vbool b = Decls.VBool b
let vfloat f = Decls.VFloat f

let row_tests =
  let open Instances in
  module_row ~elem:"int" ~op:"+" int_lit vint (module Int_add)
    ~inverse:Int_add.inverse ()
  @ module_row ~elem:"int" ~op:"*" int_lit vint (module Int_mul) ()
  @ module_row ~elem:"int" ~op:"&" int_lit vint (module Int_band) ()
  @ module_row ~elem:"int" ~op:"|" int_lit vint (module Int_bor) ()
  @ module_row ~elem:"bool" ~op:"&&" bool_lit vbool (module Bool_and) ()
  @ module_row ~elem:"bool" ~op:"||" bool_lit vbool (module Bool_or) ()
  @ module_row ~elem:"string" ~op:"^" string_lit
      (fun s -> Decls.VString s)
      (module String_concat) ()
  @ module_row ~elem:"float" ~op:"+" float_lit vfloat (module Float_add)
      ~inverse:Float_add.inverse ()
  @ module_row ~elem:"float" ~op:"*" float_lit vfloat (module Float_mul)
      ~inverse:Float_mul.inverse ()

(* Every proof-side mapping names a row; the rows without one are
   exactly these five. *)
let test_theory_mappings_name_rows () =
  let open Gp_athena in
  let mapped = Theory.monoid_instances @ Theory.group_instances in
  let names =
    List.map
      (fun (c : Decls.carrier) -> Decls.carrier_name ~elem:c.c_elem ~op:c.c_op)
      Decls.carriers
  in
  List.iter
    (fun (m : Theory.mapping) ->
      Alcotest.(check bool) (m.m_name ^ " is a row") true
        (List.mem m.m_name names))
    mapped;
  Alcotest.(check (list string)) "rows without a mapping"
    [ "int[|]"; "bool[||]"; "float[+]"; "rational[+]"; "invertible_matrix[.]" ]
    (List.filter
       (fun n ->
         not (List.exists (fun (m : Theory.mapping) -> m.m_name = n) mapped))
       names)

(* The evaluator is not vacuous: string concatenation does not commute. *)
let test_evaluator_refutes () =
  let row = row_of ~elem:"string" ~op:"^" in
  let commutativity = Theory.find (Oracles.chain "AbelianGroup") "commutativity" in
  Alcotest.(check bool) "\"a\" ^ \"b\" <> \"b\" ^ \"a\"" false
    (Oracles.holds (Oracles.row_interpretation row) commutativity
       [ Decls.VString "a"; Decls.VString "b" ])

(* Derived from the concept definitions; check reports list these. *)
let test_axioms_of_chain () =
  let chain = Decls.axioms_of_chain in
  Alcotest.(check (list string)) "Semigroup" [ "associativity" ]
    (chain "Semigroup");
  Alcotest.(check (list string)) "Monoid"
    [ "associativity"; "left_identity"; "right_identity" ]
    (chain "Monoid");
  Alcotest.(check (list string)) "Group"
    [ "associativity"; "left_identity"; "right_identity"; "left_inverse";
      "right_inverse" ]
    (chain "Group");
  Alcotest.(check (list string)) "AbelianGroup"
    [ "associativity"; "left_identity"; "right_identity"; "left_inverse";
      "right_inverse"; "commutativity" ]
    (chain "AbelianGroup");
  Alcotest.(check (list string)) "not an algebraic concept" []
    (chain "ForwardIterator")

(* Declaring from the table keeps the standard world's declaration
   sequence, and so every generation-keyed cache key. *)
let test_world_generation () =
  Alcotest.(check int) "standard world generation" 310
    (Gp_concepts.Registry.generation (Gp_standard.Standard.world ()))

let () =
  Alcotest.run "gp_algebra"
    [
      ("instances (laws)", instance_tests);
      ("field laws", field_tests);
      ( "rational",
        [
          Alcotest.test_case "normalisation" `Quick
            test_rational_normalisation;
          Alcotest.test_case "division by zero" `Quick
            test_rational_division_by_zero;
          Alcotest.test_case "arithmetic" `Quick test_rational_arith;
        ] );
      ( "matrix",
        [
          Alcotest.test_case "identity monoid" `Quick
            test_matrix_identity_monoid;
          Alcotest.test_case "inverse" `Quick test_matrix_inverse;
          Alcotest.test_case "singular" `Quick test_matrix_singular;
        ]
        @ matrix_prop_tests );
      ( "power",
        [
          Alcotest.test_case "basics" `Quick test_power;
          Alcotest.test_case "group power" `Quick test_group_power_negative;
          power_prop;
        ] );
      ( "views",
        [
          Alcotest.test_case "additive/multiplicative/units" `Quick
            test_additive_multiplicative_views;
        ] );
      ("strict weak order", swo_tests);
      ( "carrier table",
        row_tests
        @ [
            Alcotest.test_case "theory mappings name rows" `Quick
              test_theory_mappings_name_rows;
            Alcotest.test_case "axioms of chain" `Quick test_axioms_of_chain;
            Alcotest.test_case "evaluator refutes" `Quick
              test_evaluator_refutes;
            Alcotest.test_case "standard world generation" `Quick
              test_world_generation;
          ] );
    ]
