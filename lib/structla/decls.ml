(* The matrix-structure concept taxonomy (the paper's Section 3 story
   instantiated for linear algebra): each structure is a concept
   refining DenseMatrix, carrying the complexity guarantees its kernels
   actually meet, and each packed representation is a declared —
   checked — model of its structure and of every structure above it.

   The refinement DAG (most refined at the bottom):

   {v
                        DenseMatrix
            /        |        |          \
     SymmetricMatrix | TriangularMatrix  SparseMatrix
            \   BandedMatrix  /
             \       |       /
              DiagonalMatrix
   v}

   Nominal checking walks this DAG, so every carrier declares a model
   for its concept and for each ancestor, each with the complexity the
   carrier's kernels achieve *for that concept's requirement* — e.g.
   csrmat's SparseMatrix model declares the O(nnz) matvec, while its
   DenseMatrix model declares O(n^2): O(nnz) and O(n^2) live over
   different size variables and are incomparable, so the refined bound
   belongs only to the refined concept. *)

open Gp_concepts

let v t = Ctype.Var t
let n name = Ctype.Named name

(* Size variables: [n] order, [b] bandwidth, [nnz] stored nonzeros. *)
let o_n = Complexity.linear "n"
let o_n2 = Complexity.quadratic "n"
let o_n3 = Complexity.cubic "n"
let o_nb = Complexity.mul o_n (Complexity.linear "b")
let o_nb2 = Complexity.mul o_nb (Complexity.linear "b")
let o_nnz = Complexity.linear "nnz"

let dense_matrix =
  Concept.make ~params:[ "M" ] "DenseMatrix"
    ~doc:"square real matrix with the three served operations"
    [
      Concept.signature "matvec" [ v "M"; n "rvec" ] (n "rvec");
      Concept.signature "matmul" [ v "M"; v "M" ] (v "M");
      Concept.signature "solve" [ v "M"; n "rvec" ] (n "rvec");
      Concept.axiom "linearity" ~vars:[ "A"; "x"; "y" ]
        "matvec(A, x + y) = matvec(A, x) + matvec(A, y)";
      Concept.axiom "solve_inverts" ~vars:[ "A"; "b" ]
        "matvec(A, solve(A, b)) = b";
      Concept.complexity "matvec" o_n2;
      Concept.complexity "matmul" o_n3;
      Concept.complexity "solve" o_n3;
    ]

let symmetric_matrix =
  Concept.make ~params:[ "M" ] "SymmetricMatrix"
    ~doc:"A(i,j) = A(j,i); packed half storage"
    ~refines:[ ("DenseMatrix", [ v "M" ]) ]
    [
      Concept.axiom "symmetry" ~vars:[ "A"; "i"; "j" ] "A(i,j) = A(j,i)";
      Concept.complexity "matvec" o_n2;
    ]

let triangular_matrix =
  Concept.make ~params:[ "M" ] "TriangularMatrix"
    ~doc:"one dead triangle; solve by substitution"
    ~refines:[ ("DenseMatrix", [ v "M" ]) ]
    [
      Concept.axiom "triangularity" ~vars:[ "A"; "i"; "j" ]
        "i < j implies A(i,j) = 0 (lower) or i > j implies A(i,j) = 0 (upper)";
      Concept.complexity "matvec" o_n2;
      Concept.complexity "solve" o_n2;
    ]

let banded_matrix =
  Concept.make ~params:[ "M" ] "BandedMatrix"
    ~doc:"nonzeros within b of the diagonal"
    ~refines:[ ("DenseMatrix", [ v "M" ]) ]
    [
      Concept.axiom "bandedness" ~vars:[ "A"; "i"; "j" ]
        "|i - j| > b implies A(i,j) = 0";
      Concept.complexity "matvec" o_nb;
      Concept.complexity "matmul" o_nb2;
    ]

let sparse_matrix =
  Concept.make ~params:[ "M" ] "SparseMatrix"
    ~doc:"compressed rows over nnz stored entries"
    ~refines:[ ("DenseMatrix", [ v "M" ]) ]
    [
      Concept.axiom "sparsity" ~vars:[ "A" ]
        "unstored entries of A read as 0";
      Concept.complexity "matvec" o_nnz;
    ]

let diagonal_matrix =
  Concept.make ~params:[ "M" ] "DiagonalMatrix"
    ~doc:"the most refined structure: everything is O(n)"
    ~refines:
      [
        ("BandedMatrix", [ v "M" ]);
        ("TriangularMatrix", [ v "M" ]);
        ("SymmetricMatrix", [ v "M" ]);
      ]
    [
      Concept.axiom "diagonality" ~vars:[ "A"; "i"; "j" ]
        "i <> j implies A(i,j) = 0";
      Concept.complexity "matvec" o_n;
      Concept.complexity "matmul" o_n;
      Concept.complexity "solve" o_n;
    ]

let concepts =
  [
    dense_matrix;
    symmetric_matrix;
    triangular_matrix;
    banded_matrix;
    sparse_matrix;
    diagonal_matrix;
  ]

let carriers = [ "dmat"; "diagmat"; "bandmat"; "trimat"; "symmat"; "csrmat" ]

(* Checked claims: what each carrier's kernels actually achieve, per
   concept requirement (ancestor models keep the ancestor's bound where
   the refined one is variable-incomparable). *)
let dense_bounds =
  [ ("matvec", o_n2); ("matmul", o_n3); ("solve", o_n3) ]

let models_of_carrier =
  [
    ("dmat", [ ("DenseMatrix", dense_bounds) ]);
    ( "symmat",
      [
        ("SymmetricMatrix", [ ("matvec", o_n2) ]);
        ("DenseMatrix", dense_bounds);
      ] );
    ( "trimat",
      [
        ("TriangularMatrix", [ ("matvec", o_n2); ("solve", o_n2) ]);
        ("DenseMatrix", dense_bounds);
      ] );
    ( "bandmat",
      [
        ("BandedMatrix", [ ("matvec", o_nb); ("matmul", o_nb2) ]);
        ("DenseMatrix", dense_bounds);
      ] );
    ( "csrmat",
      [
        ("SparseMatrix", [ ("matvec", o_nnz) ]);
        ("DenseMatrix", dense_bounds);
      ] );
    ( "diagmat",
      [
        ( "DiagonalMatrix",
          [ ("matvec", o_n); ("matmul", o_n); ("solve", o_n) ] );
        ("BandedMatrix", [ ("matvec", o_n); ("matmul", o_n) ]);
        ("TriangularMatrix", [ ("matvec", o_n); ("solve", o_n) ]);
        ("SymmetricMatrix", [ ("matvec", o_n) ]);
        ("DenseMatrix", [ ("matvec", o_n); ("matmul", o_n); ("solve", o_n) ]);
      ] );
  ]

let axioms_of = function
  | "DenseMatrix" -> [ "linearity"; "solve_inverts" ]
  | "SymmetricMatrix" -> [ "symmetry" ]
  | "TriangularMatrix" -> [ "triangularity" ]
  | "BandedMatrix" -> [ "bandedness" ]
  | "SparseMatrix" -> [ "sparsity" ]
  | "DiagonalMatrix" -> [ "diagonality" ]
  | _ -> []

let declare reg =
  (* a no-op when already declared into this registry *)
  if not (Registry.has_concept reg "DenseMatrix") then begin
    List.iter (Registry.declare_concept reg) concepts;
    if not (Registry.has_type reg "rvec") then
      Registry.declare_type reg "rvec" ~doc:"real vector";
    List.iter
      (fun c ->
        Registry.declare_type reg c;
        Registry.declare_op reg "matvec" [ n c; n "rvec" ] (n "rvec");
        Registry.declare_op reg "matmul" [ n c; n c ] (n c);
        Registry.declare_op reg "solve" [ n c; n "rvec" ] (n "rvec"))
      carriers;
    List.iter
      (fun (c, models) ->
        List.iter
          (fun (concept, complexity) ->
            Registry.declare_model reg concept [ n c ]
              ~axioms:(axioms_of concept) ~complexity)
          models)
      models_of_carrier
  end
