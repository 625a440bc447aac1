(* Tests for gp_algebra: law properties per instance (qcheck), rationals,
   matrices, power functors. *)

open Gp_algebra

let qtest = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Law properties per instance                                         *)
(* ------------------------------------------------------------------ *)

let monoid_laws (type a) name (module M : Sigs.MONOID with type t = a) gen =
  let module L = Laws.Monoid (M) in
  [
    qtest
      (QCheck.Test.make ~name:(name ^ " associativity") ~count:200
         (QCheck.triple gen gen gen)
         (fun (a, b, c) -> L.associative a b c));
    qtest
      (QCheck.Test.make ~name:(name ^ " left identity") ~count:200 gen
         L.left_identity);
    qtest
      (QCheck.Test.make ~name:(name ^ " right identity") ~count:200 gen
         L.right_identity);
  ]

let group_laws (type a) name (module G : Sigs.GROUP with type t = a) gen =
  let module L = Laws.Group (G) in
  monoid_laws name (module G) gen
  @ [
      qtest
        (QCheck.Test.make ~name:(name ^ " left inverse") ~count:200 gen
           L.left_inverse);
      qtest
        (QCheck.Test.make ~name:(name ^ " right inverse") ~count:200 gen
           L.right_inverse);
    ]

let small_int = QCheck.int_range (-1000) 1000

let rational_gen =
  QCheck.map
    (fun (a, b) -> Rational.make a (if b = 0 then 1 else b))
    (QCheck.pair (QCheck.int_range (-50) 50)
       (QCheck.int_range (-50) 50))

let instance_tests =
  monoid_laws "(int,+)" (module Instances.Int_add) small_int
  @ group_laws "(int,+) group" (module Instances.Int_add) small_int
  @ monoid_laws "(int,*)"
      (module Instances.Int_mul)
      (QCheck.int_range (-30) 30)
  @ monoid_laws "(int,&)" (module Instances.Int_band) QCheck.int
  @ monoid_laws "(int,|)" (module Instances.Int_bor) QCheck.int
  @ monoid_laws "(bool,&&)" (module Instances.Bool_and) QCheck.bool
  @ monoid_laws "(bool,||)" (module Instances.Bool_or) QCheck.bool
  @ monoid_laws "(string,^)"
      (module Instances.String_concat)
      (QCheck.string_of_size (QCheck.Gen.int_range 0 8))
  @ monoid_laws "(rational,+)"
      (module struct
        include Rational.Field

        let op = add
        let id = zero
      end)
      rational_gen
  @ group_laws "(rational,+) group"
      (module struct
        include Rational.Field

        let op = add
        let id = zero
        let inverse = neg
      end)
      rational_gen

(* Field laws for rationals. *)
let field_tests =
  let module L = Laws.Field (Rational.Field) in
  [
    qtest
      (QCheck.Test.make ~name:"rational distributivity" ~count:200
         (QCheck.triple rational_gen rational_gen rational_gen)
         (fun (a, b, c) -> L.left_distributive a b c && L.right_distributive a b c));
    qtest
      (QCheck.Test.make ~name:"rational mul inverse" ~count:200 rational_gen
         L.multiplicative_inverse);
    qtest
      (QCheck.Test.make ~name:"rational mul commutative" ~count:200
         (QCheck.pair rational_gen rational_gen)
         (fun (a, b) -> L.mul_commutative a b));
  ]

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

(* SWO laws on int and on a reversed order. *)
let swo_tests =
  let module S = Laws.Strict_weak_order (struct
    type t = int

    let lt = ( < )
  end) in
  [
    qtest
      (QCheck.Test.make ~name:"int < irreflexive" ~count:200 QCheck.int
         S.irreflexive);
    qtest
      (QCheck.Test.make ~name:"int < transitive" ~count:200
         (QCheck.triple small_int small_int small_int)
         (fun (a, b, c) -> S.lt_transitive a b c));
    qtest
      (QCheck.Test.make ~name:"equivalence symmetric (derived)" ~count:200
         (QCheck.pair small_int small_int)
         (fun (a, b) -> S.e_symmetric a b));
    qtest
      (QCheck.Test.make ~name:"equivalence reflexive (derived)" ~count:200
         small_int S.e_reflexive);
    qtest
      (QCheck.Test.make ~name:"equivalence transitive" ~count:200
         (QCheck.triple small_int small_int small_int)
         (fun (a, b, c) -> S.e_transitive a b c));
  ]

(* ------------------------------------------------------------------ *)
(* The carrier table against the other places a carrier appears        *)
(* ------------------------------------------------------------------ *)

let row_of ~elem ~op =
  List.find
    (fun (c : Decls.carrier) ->
      String.equal c.c_elem elem && String.equal c.c_op op)
    Decls.carriers

(* The row's identity literal as a value of the instance's type. *)
let row_identity ~elem ~op lit =
  match Option.bind (row_of ~elem ~op).c_identity lit with
  | Some v -> v
  | None ->
    Alcotest.failf "%s: no identity literal" (Decls.carrier_name ~elem ~op)

(* An executable monoid agrees with its row: its [id] is the row's
   identity, that literal satisfies the identity laws, and the row names
   no inverse. *)
let monoid_row (type a) ~elem ~op lit (module M : Sigs.MONOID with type t = a)
    gen =
  let name = Decls.carrier_name ~elem ~op in
  [
    Alcotest.test_case (name ^ " row") `Quick (fun () ->
        Alcotest.(check bool) "id is the row's identity" true
          (M.equal M.id (row_identity ~elem ~op lit));
        Alcotest.(check bool) "no inverse in the row" true
          ((row_of ~elem ~op).c_inverse = None));
    qtest
      (QCheck.Test.make ~name:(name ^ " row identity laws") ~count:100 gen
         (fun a ->
           let row_id = row_identity ~elem ~op lit in
           let module L = Laws.Monoid (struct
             include M

             let id = row_id
           end) in
           L.left_identity a && L.right_identity a));
  ]

(* An executable group agrees with its row: as a monoid, and the row
   names an inverse, under which the row's identity satisfies the
   inverse laws. *)
let group_row (type a) ~elem ~op lit (module G : Sigs.GROUP with type t = a)
    gen =
  let name = Decls.carrier_name ~elem ~op in
  [
    Alcotest.test_case (name ^ " row") `Quick (fun () ->
        Alcotest.(check bool) "id is the row's identity" true
          (G.equal G.id (row_identity ~elem ~op lit));
        Alcotest.(check bool) "an inverse in the row" true
          ((row_of ~elem ~op).c_inverse <> None));
    qtest
      (QCheck.Test.make ~name:(name ^ " row group laws") ~count:100 gen
         (fun a ->
           let row_id = row_identity ~elem ~op lit in
           let module L = Laws.Group (struct
             include G

             let id = row_id
           end) in
           L.left_identity a && L.right_identity a && L.left_inverse a
           && L.right_inverse a));
  ]

let int_lit = function Decls.VInt i -> Some i | _ -> None
let bool_lit = function Decls.VBool b -> Some b | _ -> None
let string_lit = function Decls.VString s -> Some s | _ -> None
let float_lit = function Decls.VFloat f -> Some f | _ -> None

(* signed powers of two: float products and inverses stay exact *)
let float_gen =
  QCheck.map
    (fun (neg, k) -> (if neg then -1.0 else 1.0) *. Float.ldexp 1.0 k)
    (QCheck.pair QCheck.bool (QCheck.int_range (-20) 20))

let row_tests =
  group_row ~elem:"int" ~op:"+" int_lit (module Instances.Int_add) small_int
  @ monoid_row ~elem:"int" ~op:"*" int_lit (module Instances.Int_mul) small_int
  @ monoid_row ~elem:"int" ~op:"&" int_lit (module Instances.Int_band)
      QCheck.int
  @ monoid_row ~elem:"int" ~op:"|" int_lit (module Instances.Int_bor)
      QCheck.int
  @ monoid_row ~elem:"bool" ~op:"&&" bool_lit (module Instances.Bool_and)
      QCheck.bool
  @ monoid_row ~elem:"bool" ~op:"||" bool_lit (module Instances.Bool_or)
      QCheck.bool
  @ monoid_row ~elem:"string" ~op:"^" string_lit
      (module Instances.String_concat)
      (QCheck.string_of_size (QCheck.Gen.int_range 0 8))
  @ group_row ~elem:"float" ~op:"+" float_lit (module Instances.Float_add)
      float_gen
  @ group_row ~elem:"float" ~op:"*" float_lit (module Instances.Float_mul)
      float_gen

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
            Alcotest.test_case "standard world generation" `Quick
              test_world_generation;
          ] );
    ]
