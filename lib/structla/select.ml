(* Concept-guided kernel selection.

   Three generic functions (matvec, matmul, solve), each holding one
   candidate per kernel, guarded by the concept the kernel needs. A
   call resolves nominally against the argument's carrier type and the
   most refined matching guard wins — a diagonal matrix takes the O(n)
   diagonal candidates everywhere, a banded one takes the banded
   matvec/matmul but falls back to the dense solve, and so on. The
   losing-but-matching candidates come back in the resolution, which is
   how the bench shows what forcing the dense kernel would have cost. *)

module Tel = Gp_telemetry.Tel
open Gp_concepts

type Overload.dyn += Dmat of Mat.t | Dvec of float array

type t = {
  g_matvec : Overload.generic;
  g_matmul : Overload.generic;
  g_solve : Overload.generic;
}

type op = Matvec | Matmul | Solve

let op_name = function
  | Matvec -> "matvec"
  | Matmul -> "matmul"
  | Solve -> "solve"

let mat_vec name = function
  | [ Dmat m; Dvec v ] -> (m, v)
  | _ -> invalid_arg (name ^ ": expected (matrix, vector)")

let mat_mat name = function
  | [ Dmat a; Dmat b ] -> (a, b)
  | _ -> invalid_arg (name ^ ": expected (matrix, matrix)")

let need name = function
  | Some x -> x
  | None -> invalid_arg (name ^ ": representation refuses the structure")

(* Candidate bodies: convert to the packed representation the kernel
   wants — the guard guarantees the carrier models the concept, and the
   Mat converters re-verify. *)

let matvec_generic () =
  let g = Overload.create "matvec" in
  let cand name guard pack kern =
    Overload.add_candidate g ~name ~guard (fun args ->
        let m, v = mat_vec name args in
        Dvec (kern (need name (pack m)) v))
  in
  cand "matvec.diagonal" "DiagonalMatrix" Mat.as_diagonal
    Kernels.matvec_diagonal;
  cand "matvec.banded" "BandedMatrix" Mat.as_banded Kernels.matvec_banded;
  cand "matvec.triangular" "TriangularMatrix" Mat.as_triangular
    Kernels.matvec_triangular;
  cand "matvec.symmetric" "SymmetricMatrix" Mat.as_symmetric
    Kernels.matvec_symmetric;
  Overload.add_candidate g ~name:"matvec.csr" ~guard:"SparseMatrix"
    (fun args ->
      let m, v = mat_vec "matvec.csr" args in
      Dvec (Kernels.matvec_csr (Mat.as_csr m) v));
  Overload.add_candidate g ~name:"matvec.dense" ~guard:"DenseMatrix"
    (fun args ->
      let m, v = mat_vec "matvec.dense" args in
      Dvec (Kernels.matvec_dense (Mat.to_dense m) v));
  g

let matmul_generic () =
  let g = Overload.create "matmul" in
  Overload.add_candidate g ~name:"matmul.diagonal" ~guard:"DiagonalMatrix"
    (fun args ->
      let a, b = mat_mat "matmul.diagonal" args in
      Dmat
        (Mat.Diagonal
           (Kernels.matmul_diagonal
              (need "matmul.diagonal" (Mat.as_diagonal a))
              (need "matmul.diagonal" (Mat.as_diagonal b)))));
  Overload.add_candidate g ~name:"matmul.banded" ~guard:"BandedMatrix"
    (fun args ->
      let a, b = mat_mat "matmul.banded" args in
      Dmat
        (Mat.Banded
           (Kernels.matmul_banded
              (need "matmul.banded" (Mat.as_banded a))
              (need "matmul.banded" (Mat.as_banded b)))));
  Overload.add_candidate g ~name:"matmul.dense" ~guard:"DenseMatrix"
    (fun args ->
      let a, b = mat_mat "matmul.dense" args in
      (* a square, the served m * m, is expanded once *)
      let da = Mat.to_dense a in
      let db = if b == a then da else Mat.to_dense b in
      Dmat (Mat.Dense (Kernels.matmul_dense da db)));
  g

let solve_generic () =
  let g = Overload.create "solve" in
  Overload.add_candidate g ~name:"solve.diagonal" ~guard:"DiagonalMatrix"
    (fun args ->
      let m, b = mat_vec "solve.diagonal" args in
      Dvec (Kernels.solve_diagonal (need "solve.diagonal" (Mat.as_diagonal m)) b));
  Overload.add_candidate g ~name:"solve.triangular" ~guard:"TriangularMatrix"
    (fun args ->
      let m, b = mat_vec "solve.triangular" args in
      Dvec
        (Kernels.solve_triangular
           (need "solve.triangular" (Mat.as_triangular m))
           b));
  Overload.add_candidate g ~name:"solve.dense" ~guard:"DenseMatrix"
    (fun args ->
      let m, b = mat_vec "solve.dense" args in
      Dvec (Kernels.solve_dense (Mat.to_dense m) b));
  g

let create () =
  {
    g_matvec = matvec_generic ();
    g_matmul = matmul_generic ();
    g_solve = solve_generic ();
  }

let generic t = function
  | Matvec -> t.g_matvec
  | Matmul -> t.g_matmul
  | Solve -> t.g_solve

let resolve reg t op m =
  Overload.resolve reg (generic t op) [ Ctype.Named (Mat.carrier m) ]

let selected reg t op m =
  match resolve reg t op m with
  | Overload.Selected (c, _) -> Ok c
  | (Overload.Ambiguous _ | Overload.No_match _) as r ->
    Error
      (Format.asprintf "%s on %s: %a" (op_name op) (Mat.carrier m)
         Overload.pp_resolution r)

let run op_tag reg t gen_args m =
  Tel.with_span ~name:("structla." ^ op_name op_tag) @@ fun () ->
  match selected reg t op_tag m with
  | Error _ as e -> e
  | Ok c ->
    Tel.attr "kernel" c.Overload.cand_name;
    Ok (c.Overload.cand_name, c.Overload.cand_impl gen_args)

let matvec reg t m v =
  match run Matvec reg t [ Dmat m; Dvec v ] m with
  | Error _ as e -> e
  | Ok (name, Dvec r) -> Ok (name, r)
  | Ok (name, _) -> Error (name ^ ": candidate returned a non-vector")

let matmul reg t a b =
  match run Matmul reg t [ Dmat a; Dmat b ] a with
  | Error _ as e -> e
  | Ok (name, Dmat r) -> Ok (name, r)
  | Ok (name, _) -> Error (name ^ ": candidate returned a non-matrix")

let solve reg t m b =
  match run Solve reg t [ Dmat m; Dvec b ] m with
  | Error _ as e -> e
  | Ok (name, Dvec r) -> Ok (name, r)
  | Ok (name, _) -> Error (name ^ ": candidate returned a non-vector")

(* One numeric miss, as the dispatcher serves it: generate the matrix in
   its packed storage, classify it, count the exact kernel steps, run
   the selected kernel and checksum the result. [ms_cells] counts the
   elements the miss touches — the cells the generator writes, the
   entries the detector actually reads (plus the dense cells it re-reads
   when it converts) and the kernel steps — as a returned value, never
   through Tel, so the served metrics and dumps keep their bytes. *)

type miss = {
  ms_kernel : string;
  ms_detected : string;
  ms_steps : int;
  ms_checksum : string;
  ms_cells : int;
}

let miss reg t ~op ~structure ~n ~seed =
  let g =
    match Mat.generate ~structure ~n ~seed with
    | Some g -> g
    | None -> invalid_arg ("Select.miss: unknown structure " ^ structure)
  in
  let m, read = Detect.classify_reads g in
  let steps, outcome =
    match op with
    | Matvec ->
      ( Kernels.matvec_steps m,
        Result.map
          (fun (k, y) -> (k, Mat.checksum_vec y))
          (matvec reg t m (Mat.generate_vec ~n ~seed)) )
    | Matmul ->
      ( Kernels.matmul_steps m,
        Result.map (fun (k, c) -> (k, Mat.checksum c)) (matmul reg t m m) )
    | Solve ->
      ( Kernels.solve_steps m,
        Result.map
          (fun (k, x) -> (k, Mat.checksum_vec x))
          (solve reg t m (Mat.generate_vec ~n ~seed)) )
  in
  let written = Mat.stored g in
  Result.map
    (fun (kernel, checksum) ->
      {
        ms_kernel = kernel;
        ms_detected = Mat.structure_name m;
        ms_steps = steps;
        ms_checksum = checksum;
        ms_cells = written + read + steps;
      })
    outcome
