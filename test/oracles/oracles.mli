(** Naive dense references for the structla kernels — the equivalence
    oracles. They raise the same dimension errors as the kernels, e.g.
    ["matvec: 3x4 * 5"]. The served dense kernels
    ({!Gp_structla.Kernels.matvec_dense} and the others) keep these
    references' operation order, so they agree bit for bit. *)

val matvec_reference :
  Gp_structla.Mat.dense -> float array -> float array

val matmul_reference :
  Gp_structla.Mat.dense -> Gp_structla.Mat.dense -> Gp_structla.Mat.dense

val solve_reference : Gp_structla.Mat.dense -> float array -> float array
(** Gaussian elimination with partial pivoting. Raises
    [Invalid_argument] on a non-square or singular system. *)
