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

(* The early-stopping classify against the full-profile one, on full
   storage built to sit on every decision boundary: NaN anywhere, -0.0,
   a nonzero in a triangle's dead half, the smallest orders, non-square
   shapes, and exactly a quarter (or one more) of the entries nonzero.
   Equal structurally (with [compare], which holds NaN equal to itself)
   and in physical identity. *)
let full_storage_arb =
  let open QCheck.Gen in
  let entry =
    frequency
      [ (6, return 0.0); (1, return (-0.0)); (1, return Float.nan);
        (1, return Float.infinity); (2, return 1.5); (1, return (-2.25));
        (2, float_range (-4.0) 4.0) ]
  in
  let nonzero = frequency [ (4, return 1.5); (1, return Float.nan);
                            (1, return (-0.5)) ] in
  (* exactly n*n/4 nonzeros, or one more, anywhere, n even *)
  let quarter =
    int_range 1 6 >>= fun h ->
    let n = 2 * h in
    shuffle_l (List.init (n * n) Fun.id) >>= fun order ->
    bool >>= fun one_more ->
    array_size (return (n * n)) nonzero >>= fun vals ->
    let count = (n * n / 4) + if one_more then 1 else 0 in
    let d = Array.make (n * n) 0.0 in
    List.iteri (fun q k -> if q < count then d.(k) <- vals.(q)) order;
    return d
  in
  let square =
    frequency [ (3, int_range 1 3); (3, int_range 4 12) ] >>= fun n ->
    frequency
      [
        (2, array_size (return (n * n)) entry);
        (* a mirrored matrix, with a chance of one broken pair *)
        ( 1, array_size (return (n * n)) entry >>= fun d ->
          bool >>= fun break ->
          let d =
            Array.init (n * n) (fun k ->
                let i = k / n and j = k mod n in
                if i >= j then d.(k) else d.((j * n) + i))
          in
          if break && n >= 2 then d.(n - 1) <- 3.0;
          return d );
        (* upper or lower triangle content, with a chance of a stray
           entry in the dead half *)
        ( 2, array_size (return (n * n)) entry >>= fun d ->
          bool >>= fun upper ->
          int_range 0 ((n * n) - 1) >>= fun stray ->
          bool >>= fun keep_stray ->
          return
            (Array.mapi
               (fun k x ->
                 let i = k / n and j = k mod n in
                 if (upper && j < i) || ((not upper) && j > i) then
                   if keep_stray && k = stray then 5.0 else 0.0
                 else x)
               d) );
        (1, quarter);
      ]
    >>= fun d ->
    let n = int_of_float (Float.sqrt (float_of_int (Array.length d))) in
    bool >>= fun as_tri ->
    bool >>= fun upper ->
    return
      (if as_tri then Mat.Triangular { Mat.tr_n = n; tr_upper = upper; tr = d }
       else Mat.Dense { Mat.n_rows = n; n_cols = n; d })
  in
  let rect =
    int_range 1 8 >>= fun rows ->
    int_range 1 8 >>= fun cols ->
    array_size (return (rows * cols)) entry >>= fun d ->
    return (Mat.Dense { Mat.n_rows = rows; n_cols = cols; d })
  in
  QCheck.make
    ~print:(fun m ->
      Format.asprintf "%a%s: %s" Mat.pp m
        (match m with
        | Mat.Triangular t -> if t.Mat.tr_upper then " (upper)" else " (lower)"
        | _ -> "")
        (String.concat " "
           (Array.to_list (Array.map string_of_float (Mat.to_dense m).Mat.d))))
    (frequency [ (5, square); (1, rect) ])

let classify_exact m =
  let r = Detect.classify m and o = Oracles.classify_reference m in
  compare r o = 0 && (r == m) = (o == m)

(* The reads classify reports: a generated dense matrix is decided once
   past a quarter nonzero (the two corners, then the lower triangle), an
   upper triangle once its strict lower half is read, a packed input
   after its stored entries. *)
let test_classify_reads () =
  let n = 96 in
  let reads s =
    let g = generate s ~n ~seed:7 in
    let r, k = Detect.classify_reads g in
    Alcotest.(check bool) (s ^ " comes back as it is") true (r == g);
    k
  in
  Alcotest.(check int) "dense: n*n/4 + 1" ((n * n / 4) + 1) (reads "dense");
  Alcotest.(check int) "triangular: n(n-1)/2 + 1"
    ((n * (n - 1) / 2) + 1)
    (reads "triangular");
  Alcotest.(check int) "diagonal: n stored" n (reads "diagonal");
  (* a converted input adds the packer's n*n scan of its expansion *)
  let d = Mat.dense_init 3 3 (fun i j -> if i = j then 2.0 else 0.0) in
  let r, k = Detect.classify_reads (Mat.Dense d) in
  Alcotest.(check string) "diagonal found" "diagonal" (Mat.structure_name r);
  (* never decided early: 2 corners, 2 lower cells with their mirrors,
     the 5 cells left, then the packer's 9 *)
  Alcotest.(check int) "full scan of a diagonal, then its packing"
    (2 + (2 * 2) + 5 + 9) k;
  let one = Mat.dense_init 1 1 (fun _ _ -> 5.0) in
  let _, k = Detect.classify_reads (Mat.Dense one) in
  Alcotest.(check int) "1x1: its one cell, then its packing" 2 k

let classify_early_prop =
  qtest
    (QCheck.Test.make ~name:"classify == reference (full storage)"
       ~count:2000 full_storage_arb classify_exact)

let classify_early_packed_prop =
  qtest
    (QCheck.Test.make ~name:"classify == reference (packed)"
       ~count:500 packed_arb classify_exact)

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
(* The draw stream: Mat's own LXM step against the stdlib's            *)
(* ------------------------------------------------------------------ *)

(* Both streams from one seed, then from one crafted state, compared bit
   for bit; a second round checks that both states moved alike. *)
let streams_agree ~sparse len make_mat make_std =
  let draw_mat = if sparse then Mat.draw_sparse else Mat.draw_uniform in
  let draw_std =
    if sparse then Oracles.draw_sparse_reference
    else Oracles.draw_uniform_reference
  in
  let ms = make_mat () and st = make_std () in
  let round () =
    let a = Array.make len 7.0 and b = Array.make len 7.0 in
    draw_mat ms a;
    draw_std st b;
    same_bits a b
  in
  round () && round ()

let seed_arb =
  let open QCheck.Gen in
  QCheck.make
    ~print:(fun (sparse, len, seed) ->
      Printf.sprintf "%s len=%d seed=[%s]"
        (if sparse then "sparse" else "uniform")
        len
        (String.concat "; " (Array.to_list (Array.map string_of_int seed))))
    ( bool >>= fun sparse ->
      int_range 0 300 >>= fun len ->
      array_size (int_range 0 5) int >>= fun seed ->
      return (sparse, len, seed) )

let draws_seeded_prop =
  qtest
    (QCheck.Test.make ~name:"seeded draws == Random.State draws" ~count:300
       seed_arb (fun (sparse, len, seed) ->
         streams_agree ~sparse len
           (fun () -> Mat.stream seed)
           (fun () -> Random.State.make seed)))

(* Arbitrary state words, zero words included, go through the same
   normalisation on both sides. *)
let state_string words =
  let b = Bytes.create 32 in
  List.iteri (fun i w -> Bytes.set_int64_le b (8 * i) w) words;
  Bytes.to_string b

let std_of_state bytes = Random.State.of_binary_string ("lxm1:" ^ bytes)

let state_arb =
  let open QCheck.Gen in
  let word = frequency [ (1, return 0L); (6, ui64) ] in
  QCheck.make
    ~print:(fun (sparse, len, words) ->
      Printf.sprintf "%s len=%d [%s]"
        (if sparse then "sparse" else "uniform")
        len
        (String.concat "; " (List.map Int64.to_string words)))
    ( bool >>= fun sparse ->
      int_range 0 100 >>= fun len ->
      list_repeat 4 word >>= fun words -> return (sparse, len, words) )

let draws_state_prop =
  qtest
    (QCheck.Test.make ~name:"state draws == Random.State draws"
       ~count:300 state_arb (fun (sparse, len, words) ->
         let bytes = state_string words in
         streams_agree ~sparse len
           (fun () -> Mat.stream_of_state bytes)
           (fun () -> std_of_state bytes)))

(* Crafting the next outputs. An output is mix (s + x0), and the mixer
   (two multiply-xorshift rounds and a final xorshift) is a bijection,
   so a wanted output z is reached from s = unmix z - x0. A second
   wanted output is reached through the LCG increment a, which is free
   but must be odd: the xoroshiro word x1 is tried with both low bits
   until a comes out odd. *)
let mix_m = 0xdaba0b6eb09322e3L
let lcg_m = 0xd1342543de82ef95L

let inv_mix_m =
  (* Newton's iteration for the inverse modulo 2^64 of an odd number *)
  let x = ref mix_m in
  for _ = 1 to 6 do
    x := Int64.mul !x (Int64.sub 2L (Int64.mul mix_m !x))
  done;
  !x

let xs z = Int64.logxor z (Int64.shift_right_logical z 32)
let unmix z = xs (Int64.mul (xs (Int64.mul (xs z) inv_mix_m)) inv_mix_m)
let rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let craft ?next z =
  let x0 = 0x0123456789abcdefL in
  let s = Int64.sub (unmix z) x0 in
  let with_x1 x1 =
    match next with
    | None -> Some [ 0x5555L; s; x0; x1 ]
    | Some z2 ->
      let q1 = Int64.logxor x1 x0 in
      let x0' =
        Int64.logxor (Int64.logxor (rotl x0 24) q1) (Int64.shift_left q1 16)
      in
      let a = Int64.sub (Int64.sub (unmix z2) x0') (Int64.mul s lcg_m) in
      if Int64.logand a 1L = 1L then Some [ a; s; x0; x1 ] else None
  in
  match with_x1 0x0fedcba987654320L with
  | Some words -> state_string words
  | None -> state_string (Option.get (with_x1 0x0fedcba987654321L))

let test_draw_retries () =
  let outputs bytes k =
    let st = std_of_state bytes in
    List.init k (fun _ -> Random.State.bits64 st)
  in
  let agree name ~sparse bytes =
    Alcotest.(check bool) name true
      (streams_agree ~sparse 12
         (fun () -> Mat.stream_of_state bytes)
         (fun () -> std_of_state bytes))
  in
  (* a float draw whose top 53 bits are all zero is drawn again *)
  let zero_float = craft 0x7ffL in
  Alcotest.(check bool) "crafted: first output under 2^11" true
    (Int64.unsigned_compare (List.hd (outputs zero_float 1)) 0x800L < 0);
  agree "uniform redraws a zero float" ~sparse:false zero_float;
  (* a coin whose low 30 bits fall in the rejection zone of [int 20]
     (1073741820 and up) is flipped again *)
  let rejected = craft 0x3FFF_FFFFL in
  Alcotest.(check bool) "crafted: first output rejected by int 20" true
    (Int64.to_int (List.hd (outputs rejected 1)) land 0x3FFF_FFFF
     >= 1073741820);
  agree "sparse reflips a rejected coin" ~sparse:true rejected;
  (* heads (low 30 bits 0), then a zero float: both retries in one cell *)
  let heads_zero = craft ~next:5L 0x4000_0000L in
  (match outputs heads_zero 2 with
  | [ z1; z2 ] ->
    Alcotest.(check int) "crafted: heads" 0 (Int64.to_int z1 land 0x3FFF_FFFF);
    Alcotest.(check bool) "crafted: then a zero float" true
      (Int64.equal z2 5L)
  | _ -> assert false);
  agree "sparse redraws the zero float of a heads" ~sparse:true heads_zero;
  agree "uniform from the same state" ~sparse:false heads_zero

(* The blocked dense matmul against the reference on what generated
   matrices never hold: zero patterns that leave a row any number of
   nonzeros (every group-of-four remainder), -0.0, infinities and NaN,
   and k <> n shapes. Bit for bit. *)
let matmul_adversarial_arb =
  let open QCheck.Gen in
  (* a zero weight per matrix, from none (whole groups of four, and
     C rows already nonzero when a group lands) to mostly zeros *)
  let entry zeros =
    frequency
      [ (zeros, return 0.0); (1, return (-0.0)); (1, return Float.infinity);
        (1, return Float.neg_infinity); (1, return Float.nan);
        (1, return 1e308); (12, float_range (-3.0) 3.0) ]
  in
  let mat rows cols =
    oneofl [ 0; 4; 16; 48 ] >>= fun zeros ->
    array_size (return (rows * cols)) (entry zeros) >>= fun d ->
    return { Mat.n_rows = rows; n_cols = cols; d }
  in
  QCheck.make
    ~print:(fun (a, b) ->
      let show (m : Mat.dense) =
        Printf.sprintf "%dx%d [%s]" m.Mat.n_rows m.Mat.n_cols
          (String.concat " "
             (Array.to_list (Array.map string_of_float m.Mat.d)))
      in
      show a ^ " * " ^ show b)
    ( int_range 1 6 >>= fun m ->
      int_range 1 17 >>= fun k ->
      int_range 1 7 >>= fun n ->
      mat m k >>= fun a ->
      mat k n >>= fun b -> return (a, b) )

let matmul_adversarial_prop =
  qtest
    (QCheck.Test.make ~name:"matmul_dense == oracle, any entries"
       ~count:1000 matmul_adversarial_arb (fun (a, b) ->
         same_bits (Kernels.matmul_dense a b).Mat.d
           (Oracles.matmul_reference a b).Mat.d))

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
          classify_early_prop;
          classify_early_packed_prop;
          Alcotest.test_case "reads until decided" `Quick test_classify_reads;
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
          matmul_adversarial_prop;
        ] );
      ( "draws",
        [
          draws_seeded_prop;
          draws_state_prop;
          Alcotest.test_case "retry branches" `Quick test_draw_retries;
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
