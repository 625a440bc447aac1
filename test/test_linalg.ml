(* Tests for gp_linalg: complex arithmetic, the two vector-space
   structures on complex vectors, and the CLACRM mixed-precision kernel
   against the promoted baseline. *)

open Gp_linalg

let qtest = QCheck_alcotest.to_alcotest

let cgen =
  QCheck.map
    (fun (a, b) -> Complexf.make a b)
    QCheck.(pair (float_range (-10.0) 10.0) (float_range (-10.0) 10.0))

(* ------------------------------------------------------------------ *)
(* Complex numbers                                                     *)
(* ------------------------------------------------------------------ *)

let test_complex_basics () =
  let open Complexf in
  let z = make 3.0 4.0 in
  Alcotest.(check (float 1e-12)) "abs" 5.0 (abs z);
  Alcotest.(check bool) "i*i = -1" true
    (close (mul i i) (of_float (-1.0)));
  Alcotest.(check bool) "conj" true (close (conj z) (make 3.0 (-4.0)));
  Alcotest.(check bool) "z * inv z = 1" true (close (mul z (inv z)) one);
  Alcotest.check_raises "inv 0" Division_by_zero (fun () ->
      ignore (inv zero))

let complex_field_props =
  [
    qtest
      (QCheck.Test.make ~name:"complex mul commutative" ~count:200
         QCheck.(pair cgen cgen)
         (fun (a, b) -> Complexf.close (Complexf.mul a b) (Complexf.mul b a)));
    qtest
      (QCheck.Test.make ~name:"mixed mul = promoted mul" ~count:200
         QCheck.(pair cgen (float_range (-10.0) 10.0))
         (fun (z, s) ->
           Complexf.close (Complexf.mul_real z s)
             (Complexf.mul z (Complexf.of_float s))));
    qtest
      (QCheck.Test.make ~name:"distributivity" ~count:200
         QCheck.(triple cgen cgen cgen)
         (fun (a, b, c) ->
           Complexf.close ~eps:1e-6
             (Complexf.mul a (Complexf.add b c))
             (Complexf.add (Complexf.mul a b) (Complexf.mul a c))));
  ]

(* ------------------------------------------------------------------ *)
(* Vectors: two scalar structures on one vector type                   *)
(* ------------------------------------------------------------------ *)

let test_two_vector_spaces () =
  let v = Vec.Cvec.of_array [| Complexf.make 1.0 2.0; Complexf.make (-3.0) 0.5 |] in
  (* scaling by a real via the mixed path = via promotion *)
  let mixed = Vec.cvec_scale_real 2.5 v in
  let promoted = Vec.cvec_scale_real_promoted 2.5 v in
  Alcotest.(check bool) "same result, cheaper path" true
    (Array.for_all2 Complexf.close mixed promoted);
  (* scaling by a complex scalar *)
  let c = Vec.cvec_scale_complex Complexf.i v in
  Alcotest.(check bool) "complex scaling rotates" true
    (Complexf.close c.(0) (Complexf.make (-2.0) 1.0))

let test_vec_ops () =
  let open Vec.Rvec in
  let a = of_array [| 1.0; 2.0; 3.0 |] in
  let b = of_array [| 4.0; 5.0; 6.0 |] in
  Alcotest.(check (float 1e-12)) "dot" 32.0 (dot a b);
  let s = add a b in
  Alcotest.(check (float 1e-12)) "add" 9.0 (get s 2);
  axpy ~a:2.0 a b;
  Alcotest.(check (float 1e-12)) "axpy" 6.0 (get b 0);
  Alcotest.check_raises "dim mismatch"
    (Invalid_argument "Vec: dimension mismatch") (fun () ->
      ignore (add a (of_array [| 1.0 |])))

(* ------------------------------------------------------------------ *)
(* CLACRM: gemm_mixed = gemm_promoted, at half the multiplications      *)
(* ------------------------------------------------------------------ *)

let random_cmat st m n =
  Dense.cmat_init m n (fun _ _ ->
      Complexf.make (Random.State.float st 2.0 -. 1.0)
        (Random.State.float st 2.0 -. 1.0))

let random_rmat st m n =
  Dense.rmat_init m n (fun _ _ -> Random.State.float st 2.0 -. 1.0)

let gemm_prop =
  qtest
    (QCheck.Test.make ~name:"gemm_mixed = gemm_promoted" ~count:40
       QCheck.(triple (Bounded.int_range 1 8) (Bounded.int_range 1 8) (Bounded.int_range 1 8))
       (fun (m, k, n) ->
         let st = Random.State.make [| m; k; n |] in
         let a = random_cmat st m k in
         let b = random_rmat st k n in
         Dense.cmat_close ~eps:1e-9 (Dense.gemm_mixed a b)
           (Dense.gemm_promoted a b)))

let test_gemm_known () =
  (* [1+i, 2] * [3; 4] = [3+3i+8] = [11+3i] *)
  let a =
    Dense.cmat_init 1 2 (fun _ j ->
        if j = 0 then Complexf.make 1.0 1.0 else Complexf.of_float 2.0)
  in
  let b = Dense.rmat_init 2 1 (fun i _ -> if i = 0 then 3.0 else 4.0) in
  let c = Dense.gemm_mixed a b in
  Alcotest.(check bool) "value" true
    (Complexf.close (Dense.cmat_get c 0 0) (Complexf.make 11.0 3.0))

let test_flop_model () =
  (* the analytic operation-count ratio is exactly 2x *)
  let mixed = Dense.flops_mixed ~m:10 ~k:10 ~n:10 in
  let promoted = Dense.flops_promoted ~m:10 ~k:10 ~n:10 in
  Alcotest.(check int) "2x flops" (2 * mixed) promoted

let test_gemm_dim_mismatch () =
  (* the message names the actual offending dimensions *)
  let a = Dense.cmat_create 2 3 in
  let b = Dense.rmat_create 2 2 in
  Alcotest.check_raises "mixed mismatch"
    (Invalid_argument "gemm_mixed: 2x3 * 2x2") (fun () ->
      ignore (Dense.gemm_mixed a b));
  let ca = Dense.cmat_create 3 4 in
  let cb = Dense.cmat_create 5 2 in
  Alcotest.check_raises "complex mismatch"
    (Invalid_argument "gemm_complex: 3x4 * 5x2") (fun () ->
      ignore (Dense.gemm_complex ca cb))

(* ------------------------------------------------------------------ *)
(* Vector space laws on real vectors (property-based)                  *)
(* ------------------------------------------------------------------ *)

let rvec_gen n =
  QCheck.map
    (fun seed ->
      let st = Random.State.make [| seed; n |] in
      Vec.Rvec.init n (fun _ -> Random.State.float st 10.0 -. 5.0))
    QCheck.int

let close_vec a b =
  Array.for_all2 (fun x y -> Float.abs (x -. y) < 1e-9) a b

let rvec_props =
  [
    qtest
      (QCheck.Test.make ~name:"dot symmetric" ~count:100
         (QCheck.pair (rvec_gen 5) (rvec_gen 5))
         (fun (a, b) ->
           Float.abs (Vec.Rvec.dot a b -. Vec.Rvec.dot b a) < 1e-9));
    qtest
      (QCheck.Test.make ~name:"scale distributes over add" ~count:100
         (QCheck.triple (rvec_gen 4) (rvec_gen 4)
            (QCheck.float_range (-3.0) 3.0))
         (fun (a, b, s) ->
           close_vec
             (Vec.Rvec.scale s (Vec.Rvec.add a b))
             (Vec.Rvec.add (Vec.Rvec.scale s a) (Vec.Rvec.scale s b))));
    qtest
      (QCheck.Test.make ~name:"axpy = scale + add" ~count:100
         (QCheck.triple (rvec_gen 4) (rvec_gen 4)
            (QCheck.float_range (-3.0) 3.0))
         (fun (x, y, a) ->
           let expected = Vec.Rvec.add (Vec.Rvec.scale a x) y in
           let y' = Vec.Rvec.of_array y in
           Vec.Rvec.axpy ~a x y';
           close_vec y' expected));
    qtest
      (QCheck.Test.make ~name:"neg is additive inverse" ~count:100
         (rvec_gen 6) (fun a ->
           close_vec
             (Vec.Rvec.add a (Vec.Rvec.neg a))
             (Vec.Rvec.create 6)));
  ]

(* exact vectors over rationals: equality is decidable, laws are exact *)
let test_qvec_exact () =
  let q = Gp_algebra.Rational.make in
  let a = Vec.Qvec.of_array [| q 1 2; q 1 3 |] in
  let b = Vec.Qvec.of_array [| q 1 6; q 2 3 |] in
  let s = Vec.Qvec.add a b in
  Alcotest.(check bool) "exact add" true
    (Vec.Qvec.equal s (Vec.Qvec.of_array [| q 2 3; q 1 1 |]));
  Alcotest.(check bool) "exact dot" true
    (Gp_algebra.Rational.equal (Vec.Qvec.dot a b)
       (Gp_algebra.Rational.add
          (Gp_algebra.Rational.mul (q 1 2) (q 1 6))
          (Gp_algebra.Rational.mul (q 1 3) (q 2 3))))

(* gemm against the real identity: A * I = A through the mixed kernel *)
let test_gemm_identity () =
  let st = Random.State.make [| 9 |] in
  let a = random_cmat st 4 4 in
  let id = Dense.rmat_init 4 4 (fun i j -> if i = j then 1.0 else 0.0) in
  Alcotest.(check bool) "A * I = A" true
    (Dense.cmat_close (Dense.gemm_mixed a id) a)

(* ------------------------------------------------------------------ *)
(* The VectorSpace concept: both (cvec, complex) and (cvec, real)      *)
(* ------------------------------------------------------------------ *)

let test_vector_space_concept () =
  let open Gp_concepts in
  let reg = Registry.create () in
  Gp_algebra.Decls.declare reg;
  Decls.declare reg;
  let n x = Ctype.Named x in
  Alcotest.(check bool) "(cvec, complex) models VectorSpace" true
    (Check.models reg "VectorSpace" [ n "cvec"; n "complex" ]);
  Alcotest.(check bool) "(cvec, real) models VectorSpace" true
    (Check.models reg "VectorSpace" [ n "cvec"; n "real" ]);
  (* int is no field here: not a model *)
  Alcotest.(check bool) "(cvec, int) rejected" false
    (Check.models reg "VectorSpace" [ n "cvec"; n "int" ]);
  (* the associated-type formulation can only bind ONE scalar: it cannot
     express the second structure (no 'scalar' binding on cvec at all
     here, so it fails outright) *)
  Alcotest.(check bool) "associated-type formulation cannot express it" false
    (Check.models reg "VectorSpaceAssocScalar" [ n "cvec" ])

let () =
  Alcotest.run "gp_linalg"
    [
      ( "complex",
        Alcotest.test_case "basics" `Quick test_complex_basics
        :: complex_field_props );
      ( "vectors",
        [
          Alcotest.test_case "two vector spaces" `Quick test_two_vector_spaces;
          Alcotest.test_case "ops" `Quick test_vec_ops;
        ] );
      ( "clacrm",
        [
          gemm_prop;
          Alcotest.test_case "known value" `Quick test_gemm_known;
          Alcotest.test_case "flop model" `Quick test_flop_model;
          Alcotest.test_case "dim mismatch" `Quick test_gemm_dim_mismatch;
          Alcotest.test_case "gemm identity" `Quick test_gemm_identity;
        ] );
      ("vector space laws", rvec_props);
      ("exact vectors", [ Alcotest.test_case "qvec" `Quick test_qvec_exact ]);
      ( "concept",
        [
          Alcotest.test_case "multi-type VectorSpace" `Quick
            test_vector_space_concept;
        ] );
    ]
