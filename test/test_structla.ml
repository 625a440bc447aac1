(* Tests for gp_structla: representations, detection soundness, the
   concept taxonomy, most-refined-wins kernel selection, qcheck
   equivalence of every specialised kernel against the dense oracles,
   and bit-for-bit agreement of the served dense kernels with them. *)

open Gp_concepts
module Mat = Gp_structla.Mat
module Detect = Gp_structla.Detect
module Kernels = Gp_structla.Kernels
module Select = Gp_structla.Select
module Decls = Gp_structla.Decls

let n name = Ctype.Named name
let qtest = QCheck_alcotest.to_alcotest

let world () =
  let reg = Registry.create () in
  Decls.declare reg;
  reg

let generate s ~n ~seed =
  match Mat.generate ~structure:s ~n ~seed with
  | Some g -> g
  | None -> Alcotest.fail ("unknown structure " ^ s)

let gen s ~n ~seed = Mat.to_dense (generate s ~n ~seed)

(* ------------------------------------------------------------------ *)
(* Taxonomy: declared models check nominally                           *)
(* ------------------------------------------------------------------ *)

let test_models () =
  let reg = world () in
  let models c ty = Check.models ~mode:Check.Nominal reg c [ n ty ] in
  List.iter
    (fun c ->
      Alcotest.(check bool) (c ^ " models DenseMatrix") true
        (models "DenseMatrix" c))
    Decls.carriers;
  List.iter
    (fun c ->
      Alcotest.(check bool) ("diagmat models " ^ c) true (models c "diagmat"))
    [ "DiagonalMatrix"; "BandedMatrix"; "TriangularMatrix"; "SymmetricMatrix" ];
  Alcotest.(check bool) "bandmat is not diagonal" false
    (models "DiagonalMatrix" "bandmat");
  Alcotest.(check bool) "bandmat is not triangular" false
    (models "TriangularMatrix" "bandmat");
  Alcotest.(check bool) "dmat is not sparse" false
    (models "SparseMatrix" "dmat");
  (* the registry knows the refinement DAG *)
  Alcotest.(check bool) "Diagonal refines Dense (transitively)" true
    (Registry.refines reg "DiagonalMatrix" "DenseMatrix");
  Alcotest.(check bool) "Banded does not refine Triangular" false
    (Registry.refines reg "BandedMatrix" "TriangularMatrix")

(* ------------------------------------------------------------------ *)
(* Selection: most refined wins; ambiguity and miss are reported       *)
(* ------------------------------------------------------------------ *)

let kernel_of reg sel op m =
  match Select.resolve reg sel op m with
  | Overload.Selected (c, losers) -> (c.Overload.cand_name, List.length losers)
  | r ->
    Alcotest.fail
      (Format.asprintf "expected Selected, got %a" Overload.pp_resolution r)

let test_most_refined_wins () =
  let reg = world () in
  let sel = Select.create () in
  let mat s = Detect.classify (generate s ~n:64 ~seed:1) in
  let expect op s name =
    let got, _ = kernel_of reg sel op (mat s) in
    Alcotest.(check string)
      (Select.op_name op ^ " on " ^ s)
      name got
  in
  expect Select.Matvec "diagonal" "matvec.diagonal";
  expect Select.Matvec "banded" "matvec.banded";
  expect Select.Matvec "triangular" "matvec.triangular";
  expect Select.Matvec "symmetric" "matvec.symmetric";
  expect Select.Matvec "csr" "matvec.csr";
  expect Select.Matvec "dense" "matvec.dense";
  (* fallbacks where no specialised kernel exists for the structure *)
  expect Select.Matmul "diagonal" "matmul.diagonal";
  expect Select.Matmul "banded" "matmul.banded";
  expect Select.Matmul "triangular" "matmul.dense";
  expect Select.Solve "diagonal" "solve.diagonal";
  expect Select.Solve "triangular" "solve.triangular";
  expect Select.Solve "banded" "solve.dense";
  expect Select.Solve "csr" "solve.dense";
  (* a diagonal matrix matches every matvec candidate except the sparse
     one, and the O(n) kernel beats them all *)
  let _, losers = kernel_of reg sel Select.Matvec (mat "diagonal") in
  Alcotest.(check int) "diagonal matvec: four less-refined matches" 4 losers;
  let _, losers = kernel_of reg sel Select.Matvec (mat "dense") in
  Alcotest.(check int) "dense matvec: sole match" 0 losers

let test_ambiguity_detected () =
  let reg = world () in
  let g = Overload.create "sym_or_tri" in
  Overload.add_candidate g ~name:"via symmetric" ~guard:"SymmetricMatrix"
    (fun _ -> Overload.Unit);
  Overload.add_candidate g ~name:"via triangular" ~guard:"TriangularMatrix"
    (fun _ -> Overload.Unit);
  (* diagmat models both, and neither concept refines the other *)
  match Overload.resolve reg g [ n "diagmat" ] with
  | Overload.Ambiguous cs ->
    Alcotest.(check int) "both maxima reported" 2 (List.length cs)
  | r ->
    Alcotest.fail
      (Format.asprintf "expected Ambiguous, got %a" Overload.pp_resolution r)

let test_no_match_reports () =
  let reg = world () in
  let g = Overload.create "diag_only" in
  Overload.add_candidate g ~name:"diag" ~guard:"DiagonalMatrix" (fun _ ->
      Overload.Unit);
  match Overload.resolve reg g [ n "bandmat" ] with
  | Overload.No_match [ (name, report) ] ->
    Alcotest.(check string) "candidate named" "diag" name;
    Alcotest.(check bool) "report carries failures" false (Check.ok report)
  | r ->
    Alcotest.fail
      (Format.asprintf "expected No_match, got %a" Overload.pp_resolution r)

(* ------------------------------------------------------------------ *)
(* Detection                                                           *)
(* ------------------------------------------------------------------ *)

let test_classify_generated () =
  List.iter
    (fun s ->
      List.iter
        (fun seed ->
          let d = gen s ~n:64 ~seed in
          let m = Detect.classify (generate s ~n:64 ~seed) in
          Alcotest.(check string)
            (Printf.sprintf "classify(generate %s, seed %d)" s seed)
            s (Mat.structure_name m);
          Alcotest.(check bool) "round-trips exactly" true
            (Mat.dense_equal d (Mat.to_dense m)))
        [ 0; 1; 2; 3; 4 ])
    Mat.structure_names

let test_classify_priority () =
  (* a diagonal matrix satisfies five structures; detection must claim
     the most refined one *)
  let d = gen "diagonal" ~n:32 ~seed:9 in
  Alcotest.(check string) "diagonal wins" "diagonal"
    (Mat.structure_name (Detect.classify (Mat.Dense d)));
  (* non-square: only CSR or dense can apply *)
  let r = Mat.dense_init 4 6 (fun i j -> if i = j then 1.0 else 0.0) in
  Alcotest.(check string) "non-square sparse is csr" "csr"
    (Mat.structure_name (Detect.classify (Mat.Dense r)))

(* Soundness on arbitrary matrices: whatever the detector claims, the
   packed representation expands back bit-for-bit. *)
let arbitrary_dense_arb =
  let open QCheck.Gen in
  let entry =
    frequency
      [ (4, return 0.0); (2, return 1.5); (1, return (-2.25)); (1, float) ]
  in
  let g =
    int_range 1 10 >>= fun rows ->
    int_range 1 10 >>= fun cols ->
    bool >>= fun mirror ->
    array_size (return (rows * cols)) entry >>= fun d ->
    let m = { Mat.n_rows = rows; n_cols = cols; d } in
    let m =
      if mirror && rows = cols then
        Mat.dense_init rows cols (fun i j ->
            if i >= j then Mat.dense_get m i j else Mat.dense_get m j i)
      else m
    in
    return m
  in
  QCheck.make
    ~print:(fun m -> Format.asprintf "%a" Mat.pp (Mat.Dense m))
    g

let classify_sound_prop =
  qtest
    (QCheck.Test.make ~name:"classify never misrepresents the matrix"
       ~count:500 arbitrary_dense_arb (fun d ->
         Mat.dense_equal d (Mat.to_dense (Detect.classify (Mat.Dense d)))))

(* ------------------------------------------------------------------ *)
(* Packed generation, detection and checksums vs their dense forms     *)
(* ------------------------------------------------------------------ *)

let same_bits a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

let generated_arb =
  let open QCheck.Gen in
  QCheck.make
    ~print:(fun (s, n, seed) -> Printf.sprintf "%s n=%d seed=%d" s n seed)
    ( oneofl Mat.structure_names >>= fun s ->
      int_range 1 64 >>= fun n ->
      int_range 0 99_999 >>= fun seed -> return (s, n, seed) )

let generate_matches_dense_prop =
  qtest
    (QCheck.Test.make ~name:"to_dense (generate) == dense oracle, bit for bit"
       ~count:400 generated_arb (fun (s, n, seed) ->
         let o = Option.get (Oracles.generate_dense ~structure:s ~n ~seed) in
         let d = gen s ~n ~seed in
         d.Mat.n_rows = n && d.Mat.n_cols = n && same_bits d.Mat.d o.Mat.d))

(* [classify m] depends only on what [m] stands for *)
let classify_agrees m =
  Detect.classify m = Detect.classify (Mat.Dense (Mat.to_dense m))

let classify_generated_prop =
  qtest
    (QCheck.Test.make ~name:"classify (generate) == classify (dense)"
       ~count:400 generated_arb (fun (s, n, seed) ->
         classify_agrees (generate s ~n ~seed)))

(* Hand-built packed inputs: explicit zeros, lower triangles, bands
   wider than their content, symmetric content in CSR and band form,
   non-square CSR. Entries are drawn with many exact zeros so that every
   structure, and every priority between them, turns up. *)
let packed_arb =
  let open QCheck.Gen in
  let entry =
    frequency
      [ (5, return 0.0); (2, return 1.5); (1, return (-0.0));
        (1, return (-2.25)); (1, float_range (-4.0) 4.0) ]
  in
  let square_dense =
    int_range 1 12 >>= fun n ->
    bool >>= fun mirror ->
    array_size (return (n * n)) entry >>= fun d ->
    let m = { Mat.n_rows = n; n_cols = n; d } in
    return
      (if mirror then
         Mat.dense_init n n (fun i j ->
             if i >= j then Mat.dense_get m i j else Mat.dense_get m j i)
       else m)
  in
  let g =
    frequency
      [
        ( 1,
          int_range 1 12 >>= fun n ->
          array_size (return n) entry >>= fun dg ->
          return (Mat.Diagonal { Mat.dg_n = n; dg }) );
        ( 2,
          int_range 1 14 >>= fun n ->
          int_range 0 5 >>= fun lo ->
          int_range 0 5 >>= fun hi ->
          let w = lo + hi + 1 in
          array_size (return (n * w)) entry >>= fun raw ->
          (* zero the slots outside the matrix, as the packers leave
             them, unless told to keep them *)
          bool >>= fun keep_dead ->
          let bd = Array.copy raw in
          if not keep_dead then
            for i = 0 to n - 1 do
              for j = i - lo to i + hi do
                if j < 0 || j >= n then bd.((i * w) - i + lo + j) <- 0.0
              done
            done;
          bool >>= fun mirror ->
          let b = { Mat.bd_n = n; bd_lo = lo; bd_hi = hi; bd } in
          if mirror && lo = hi then
            (* symmetric band content *)
            return
              (Mat.Banded
                 (Option.get
                    (Mat.pack_banded ~lo ~hi
                       (let d = Mat.to_dense (Mat.Banded b) in
                        Mat.dense_init n n (fun i j ->
                            if i >= j then Mat.dense_get d i j
                            else Mat.dense_get d j i)))))
          else return (Mat.Banded b) );
        ( 2,
          square_dense >>= fun d ->
          bool >>= fun upper ->
          let n = d.Mat.n_rows in
          let tr =
            Array.init (n * n) (fun k ->
                let i = k / n and j = k mod n in
                if (upper && j < i) || ((not upper) && j > i) then 0.0
                else d.Mat.d.(k))
          in
          return (Mat.Triangular { Mat.tr_n = n; tr_upper = upper; tr }) );
        ( 2,
          int_range 1 12 >>= fun n ->
          array_size (return (n * (n + 1) / 2)) entry >>= fun sy ->
          return (Mat.Symmetric { Mat.sy_n = n; sy }) );
        ( 3,
          int_range 1 12 >>= fun rows ->
          frequency [ (3, return rows); (1, int_range 1 12) ] >>= fun cols ->
          (* mostly zeros, so that sparse answers turn up too *)
          bool >>= fun sparse ->
          let cell = if sparse then frequency [ (8, return 0.0); (2, entry) ] else entry in
          array_size (return (rows * cols)) cell >>= fun d ->
          bool >>= fun mirror ->
          let m = { Mat.n_rows = rows; n_cols = cols; d } in
          let m =
            if mirror && rows = cols then
              Mat.dense_init rows cols (fun i j ->
                  if i >= j then Mat.dense_get m i j else Mat.dense_get m j i)
            else m
          in
          (* CSR of the pattern, keeping some zeros stored explicitly *)
          bool >>= fun explicit_zeros ->
          let ptr = Array.make (rows + 1) 0 in
          let idx = ref [] and vals = ref [] in
          for i = 0 to rows - 1 do
            for j = 0 to cols - 1 do
              let x = m.Mat.d.((i * cols) + j) in
              if x <> 0.0 || (explicit_zeros && (i + j) mod 3 = 0) then begin
                idx := j :: !idx;
                vals := x :: !vals
              end
            done;
            ptr.(i + 1) <- List.length !idx
          done;
          return
            (Mat.Csr
               {
                 Mat.cs_rows = rows;
                 cs_cols = cols;
                 cs_ptr = ptr;
                 cs_idx = Array.of_list (List.rev !idx);
                 cs_val = Array.of_list (List.rev !vals);
               }) );
        (1, square_dense >>= fun d -> return (Mat.Dense d));
      ]
  in
  QCheck.make
    ~print:(fun m ->
      Format.asprintf "%a: %s" Mat.pp m
        (String.concat " "
           (Array.to_list
              (Array.map string_of_float (Mat.to_dense m).Mat.d))))
    g

let classify_packed_prop =
  qtest
    (QCheck.Test.make ~name:"classify (packed) == classify (dense)"
       ~count:1000 packed_arb classify_agrees)

let checksum_prop =
  qtest
    (QCheck.Test.make ~name:"checksum == checksum_dense (to_dense)"
       ~count:500 packed_arb (fun m ->
         String.equal (Mat.checksum m)
           (Mat.checksum_dense (Mat.to_dense m))))

let checksum_generated_prop =
  qtest
    (QCheck.Test.make ~name:"checksum (generate) == checksum_dense (oracle)"
       ~count:200 generated_arb (fun (s, n, seed) ->
         let g = generate s ~n ~seed in
         let o = Option.get (Oracles.generate_dense ~structure:s ~n ~seed) in
         String.equal (Mat.checksum g) (Mat.checksum_dense o)
         && String.equal
              (Mat.checksum (Detect.classify g))
              (Mat.checksum_dense o)))

(* Hand-picked cases the generators above reach only by chance. *)
let test_classify_packed_cases () =
  let check name m =
    Alcotest.(check bool) name true (classify_agrees m)
  in
  (* past the small orders every generated matrix already is its
     detected structure, so detection returns it uncopied *)
  List.iter
    (fun s ->
      let g = generate s ~n:40 ~seed:3 in
      Alcotest.(check bool) ("generated " ^ s ^ " comes back as it is") true
        (Detect.classify g == g))
    Mat.structure_names;
  let b = generate "banded" ~n:40 ~seed:3 in
  (* a band stored three wide around a diagonal matrix *)
  check "wide band, diagonal content"
    (Mat.Banded
       { Mat.bd_n = 4; bd_lo = 1; bd_hi = 1;
         bd = [| 0.; 1.; 0.; 0.; 2.; 0.; 0.; 3.; 0.; 0.; 4.; 0. |] });
  (* a band stored wider than its content at an order where it stays
     banded, and one with a stray entry in a dead slot *)
  let d = Mat.to_dense b in
  check "wide band, narrow content"
    (Mat.Banded (Option.get (Mat.pack_banded ~lo:6 ~hi:5 d)));
  let wide = Option.get (Mat.pack_banded ~lo:4 ~hi:4 d) in
  let dead = { wide with Mat.bd = Array.copy wide.Mat.bd } in
  dead.Mat.bd.(0) <- 7.0;
  check "nonzero dead slot" (Mat.Banded dead);
  check "lower triangular"
    (Mat.Triangular
       { Mat.tr_n = 3; tr_upper = false;
         tr = [| 1.; 0.; 0.; 2.; 3.; 0.; 4.; 5.; 6. |] });
  check "triangular marked upper, stored lower"
    (Mat.Triangular
       { Mat.tr_n = 3; tr_upper = true;
         tr = [| 1.; 0.; 0.; 2.; 3.; 0.; 4.; 5.; 6. |] });
  check "csr, explicit zeros only"
    (Mat.Csr
       { Mat.cs_rows = 3; cs_cols = 3; cs_ptr = [| 0; 1; 2; 3 |];
         cs_idx = [| 0; 1; 2 |]; cs_val = [| 0.; 0.; 0. |] });
  check "csr, empty"
    (Mat.Csr
       { Mat.cs_rows = 2; cs_cols = 5; cs_ptr = [| 0; 0; 0 |];
         cs_idx = [| 0 |]; cs_val = [| 0. |] });
  check "csr, slack storage"
    (Mat.Csr
       { Mat.cs_rows = 2; cs_cols = 5; cs_ptr = [| 0; 1; 1 |];
         cs_idx = [| 3; 0; 0 |]; cs_val = [| 2.; 0.; 0. |] });
  check "csr, an explicit zero"
    (Mat.Csr
       { Mat.cs_rows = 2; cs_cols = 5; cs_ptr = [| 0; 2; 2 |];
         cs_idx = [| 1; 3 |]; cs_val = [| 0.; 2. |] });
  (* lower entries mirrored, one upper entry beyond the lower band *)
  check "band symmetric below, not above"
    (Mat.Banded
       { Mat.bd_n = 4; bd_lo = 1; bd_hi = 2;
         bd =
           [| 0.; 5.; 1.; 7.;
              1.; 5.; 2.; 0.;
              2.; 5.; 3.; 0.;
              3.; 5.; 0.; 0. |] });
  check "csr, unsorted row"
    (Mat.Csr
       { Mat.cs_rows = 2; cs_cols = 2; cs_ptr = [| 0; 2; 3 |];
         cs_idx = [| 1; 0; 1 |]; cs_val = [| 2.; 1.; 3. |] });
  check "symmetric with zero off-diagonal"
    (Mat.Symmetric { Mat.sy_n = 3; sy = [| 1.; 0.; 2.; 0.; 0.; 3. |] });
  (* NaN <> NaN, so a NaN pair is not symmetric; structural equality is
     out with a NaN inside, so compare the structures *)
  let nan_sym =
    Mat.Symmetric { Mat.sy_n = 3; sy = [| 1.; Float.nan; 2.; 0.; 0.; 3. |] }
  in
  Alcotest.(check string) "NaN off the diagonal"
    (Mat.structure_name (Detect.classify (Mat.Dense (Mat.to_dense nan_sym))))
    (Mat.structure_name (Detect.classify nan_sym))

(* ------------------------------------------------------------------ *)
(* Kernel equivalence vs the dense oracles                             *)
(* ------------------------------------------------------------------ *)

let case_arb =
  let open QCheck.Gen in
  QCheck.make
    ~print:(fun (s, n, seed) -> Printf.sprintf "%s n=%d seed=%d" s n seed)
    ( oneofl Mat.structure_names >>= fun s ->
      int_range 1 32 >>= fun n ->
      int_range 0 9999 >>= fun seed -> return (s, n, seed) )

let with_case (s, sz, seed) f =
  let d = gen s ~n:sz ~seed in
  let m = Detect.classify (generate s ~n:sz ~seed) in
  let reg = world () in
  let sel = Select.create () in
  f reg sel d m

let matvec_equiv_prop =
  qtest
    (QCheck.Test.make ~name:"selected matvec == dense oracle" ~count:150
       case_arb (fun ((_, sz, seed) as case) ->
         with_case case (fun reg sel d m ->
             let v = Mat.generate_vec ~n:sz ~seed in
             match Select.matvec reg sel m v with
             | Ok (_, y) ->
               Mat.vec_close ~eps:1e-6 y (Oracles.matvec_reference d v)
             | Error e -> QCheck.Test.fail_report e)))

let matmul_equiv_prop =
  qtest
    (QCheck.Test.make ~name:"selected matmul == dense oracle" ~count:60
       case_arb (fun case ->
         with_case case (fun reg sel d m ->
             match Select.matmul reg sel m m with
             | Ok (_, c) ->
               Mat.dense_close ~eps:1e-6 (Mat.to_dense c)
                 (Oracles.matmul_reference d d)
             | Error e -> QCheck.Test.fail_report e)))

let solve_equiv_prop =
  qtest
    (QCheck.Test.make ~name:"selected solve == dense oracle" ~count:100
       case_arb (fun ((_, sz, seed) as case) ->
         with_case case (fun reg sel d m ->
             let b = Mat.generate_vec ~n:sz ~seed:(seed + 1) in
             match Select.solve reg sel m b with
             | Ok (_, x) ->
               Mat.vec_close ~eps:1e-6 x (Oracles.solve_reference d b)
             | Error e -> QCheck.Test.fail_report e)))

(* The solution actually solves the system (the solve_inverts axiom). *)
let solve_inverts_prop =
  qtest
    (QCheck.Test.make ~name:"matvec(A, solve(A,b)) == b" ~count:100 case_arb
       (fun ((_, sz, seed) as case) ->
         with_case case (fun reg sel _ m ->
             let b = Mat.generate_vec ~n:sz ~seed:(seed + 2) in
             match Select.solve reg sel m b with
             | Ok (_, x) -> (
               match Select.matvec reg sel m x with
               | Ok (_, b') -> Mat.vec_close ~eps:1e-5 b' b
               | Error e -> QCheck.Test.fail_report e)
             | Error e -> QCheck.Test.fail_report e)))

(* The served dense kernels keep the oracles' operation order, so they
   agree bit for bit, not just within an epsilon. *)

let dense_kernels_bit_exact_prop =
  qtest
    (QCheck.Test.make ~name:"dense kernels == oracles, bit for bit" ~count:100
       case_arb (fun (s, sz, seed) ->
         let d = gen s ~n:sz ~seed in
         let v = Mat.generate_vec ~n:sz ~seed in
         same_bits (Kernels.matvec_dense d v) (Oracles.matvec_reference d v)
         && same_bits (Kernels.matmul_dense d d).Mat.d
              (Oracles.matmul_reference d d).Mat.d
         && same_bits (Kernels.solve_dense d v) (Oracles.solve_reference d v)))

(* ------------------------------------------------------------------ *)
(* Exact step counts                                                   *)
(* ------------------------------------------------------------------ *)

let test_step_counts () =
  let d = Detect.classify (generate "dense" ~n:8 ~seed:0) in
  Alcotest.(check int) "dense matvec n^2" 64 (Kernels.matvec_steps d);
  Alcotest.(check int) "dense matmul n^3" 512 (Kernels.matmul_steps d);
  let dg = Detect.classify (generate "diagonal" ~n:8 ~seed:0) in
  Alcotest.(check int) "diagonal matvec n" 8 (Kernels.matvec_steps dg);
  Alcotest.(check int) "diagonal solve n" 8 (Kernels.solve_steps dg);
  let t = Detect.classify (generate "triangular" ~n:8 ~seed:0) in
  Alcotest.(check int) "triangular matvec n(n+1)/2" 36
    (Kernels.matvec_steps t);
  Alcotest.(check int) "triangular solve n(n+1)/2" 36 (Kernels.solve_steps t);
  (* banded n=10, bandwidth 4 generator: rows clipped at the edges *)
  let b = Detect.classify (generate "banded" ~n:24 ~seed:0) in
  (match b with
  | Mat.Banded { Mat.bd_lo = lo; bd_hi = hi; _ } ->
    Alcotest.(check int) "generator bandwidth" 8 (lo + hi)
  | _ -> Alcotest.fail "expected banded");
  Alcotest.(check int) "banded matvec = sum of row widths"
    (9 * 24 - 2 * (4 + 3 + 2 + 1))
    (Kernels.matvec_steps b);
  let c = Detect.classify (generate "csr" ~n:24 ~seed:0) in
  match c with
  | Mat.Csr csr ->
    Alcotest.(check int) "csr matvec = nnz" (Mat.nnz_csr csr)
      (Kernels.matvec_steps c)
  | _ -> Alcotest.fail "expected csr"

(* The acceptance ratios behind bench s6, on exact step counts. *)
let test_step_ratios_at_256 () =
  let n = 256 in
  let dense_steps =
    Kernels.matvec_steps (Detect.classify (generate "dense" ~n ~seed:0))
  in
  let diag_steps =
    Kernels.matvec_steps (Detect.classify (generate "diagonal" ~n ~seed:0))
  in
  let band_steps =
    Kernels.matvec_steps (Detect.classify (generate "banded" ~n ~seed:0))
  in
  Alcotest.(check bool) "diagonal matvec >= 10x fewer steps" true
    (dense_steps >= 10 * diag_steps);
  Alcotest.(check bool) "banded matvec >= 5x fewer steps" true
    (dense_steps >= 5 * band_steps)

(* ------------------------------------------------------------------ *)
(* Dimension errors name the shapes                                    *)
(* ------------------------------------------------------------------ *)

let test_dimension_messages () =
  let m34 = Mat.dense_init 3 4 (fun _ _ -> 1.0) in
  let m52 = Mat.dense_init 5 2 (fun _ _ -> 1.0) in
  Alcotest.check_raises "matvec names shapes"
    (Invalid_argument "matvec: 3x4 * 5") (fun () ->
      ignore (Oracles.matvec_reference m34 (Array.make 5 0.0)));
  Alcotest.check_raises "matmul names shapes"
    (Invalid_argument "matmul: 3x4 * 5x2") (fun () ->
      ignore (Oracles.matmul_reference m34 m52));
  Alcotest.check_raises "solve names shapes"
    (Invalid_argument "solve: 3x4 not square") (fun () ->
      ignore (Oracles.solve_reference m34 (Array.make 4 0.0)));
  Alcotest.check_raises "served dense matvec names shapes"
    (Invalid_argument "matvec: 3x4 * 5") (fun () ->
      ignore (Kernels.matvec_dense m34 (Array.make 5 0.0)));
  Alcotest.check_raises "served dense matmul names shapes"
    (Invalid_argument "matmul: 3x4 * 5x2") (fun () ->
      ignore (Kernels.matmul_dense m34 m52));
  Alcotest.check_raises "served dense solve names shapes"
    (Invalid_argument "solve: 3x4 not square") (fun () ->
      ignore (Kernels.solve_dense m34 (Array.make 4 0.0)));
  Alcotest.check_raises "diagonal kernels too"
    (Invalid_argument "matvec: 6x6 * 4") (fun () ->
      ignore
        (Kernels.matvec_diagonal
           { Mat.dg_n = 6; dg = Array.make 6 1.0 }
           (Array.make 4 0.0)))

(* A dense whose storage is shorter than rows x cols is refused by every
   dense kernel and packer, never read past its end or half-packed. *)
let test_malformed_dense () =
  let bad = { Mat.n_rows = 4; n_cols = 4; d = Array.make 10 0.0 } in
  let v = Array.make 4 1.0 in
  let raises name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s accepted a malformed dense" name
  in
  raises "matvec_dense" (fun () -> ignore (Kernels.matvec_dense bad v));
  raises "matmul_dense" (fun () -> ignore (Kernels.matmul_dense bad bad));
  raises "solve_dense" (fun () -> ignore (Kernels.solve_dense bad v));
  raises "pack_diagonal" (fun () -> ignore (Mat.pack_diagonal bad));
  raises "pack_banded" (fun () -> ignore (Mat.pack_banded ~lo:1 ~hi:1 bad));
  raises "pack_triangular" (fun () -> ignore (Mat.pack_triangular bad));
  raises "pack_symmetric" (fun () -> ignore (Mat.pack_symmetric bad));
  raises "pack_csr" (fun () -> ignore (Mat.pack_csr bad))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "gp_structla"
    [
      ( "taxonomy",
        [ Alcotest.test_case "declared models check" `Quick test_models ] );
      ( "selection",
        [
          Alcotest.test_case "most refined wins" `Quick test_most_refined_wins;
          Alcotest.test_case "ambiguity" `Quick test_ambiguity_detected;
          Alcotest.test_case "no match" `Quick test_no_match_reports;
        ] );
      ( "detect",
        [
          Alcotest.test_case "generated structures" `Quick
            test_classify_generated;
          Alcotest.test_case "priority" `Quick test_classify_priority;
          classify_sound_prop;
        ] );
      ( "packed",
        [
          generate_matches_dense_prop;
          classify_generated_prop;
          classify_packed_prop;
          Alcotest.test_case "hand-built packed inputs" `Quick
            test_classify_packed_cases;
          checksum_prop;
          checksum_generated_prop;
        ] );
      ( "kernels",
        [
          matvec_equiv_prop;
          matmul_equiv_prop;
          solve_equiv_prop;
          solve_inverts_prop;
          dense_kernels_bit_exact_prop;
        ] );
      ( "steps",
        [
          Alcotest.test_case "exact counts" `Quick test_step_counts;
          Alcotest.test_case "acceptance ratios at n=256" `Quick
            test_step_ratios_at_256;
        ] );
      ( "errors",
        [
          Alcotest.test_case "dimension messages" `Quick
            test_dimension_messages;
          Alcotest.test_case "malformed dense refused" `Quick
            test_malformed_dense;
        ] );
    ]
