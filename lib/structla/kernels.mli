(** The structure-specialised kernels and their exact step counts.

    Each specialised kernel computes exactly what the corresponding
    naive dense computation does (up to floating-point association in
    the symmetric and solve cases — the qcheck suites compare with a
    small epsilon), while touching only the stored part of its packed
    representation. The dense kernels keep the naive operation order,
    so their results are bit-identical to it. The [*_steps] functions
    return the exact inner-loop trip count of the kernel that would run
    for that representation — the quota-independent numbers bench s6
    gates on and the dispatcher charges against request budgets.

    All dimension errors raise [Invalid_argument] naming the actual
    shapes, e.g. ["matvec: 3x4 * 5"] or ["matmul: 3x3 * 4x4"]; a
    malformed {!Mat.dense} raises [Invalid_argument] too. *)

(** {2 Specialised matvec} *)

val matvec_dense : Mat.dense -> float array -> float array
val matvec_diagonal : Mat.diagonal -> float array -> float array
val matvec_banded : Mat.banded -> float array -> float array
val matvec_triangular : Mat.triangular -> float array -> float array
val matvec_symmetric : Mat.symmetric -> float array -> float array
val matvec_csr : Mat.csr -> float array -> float array

(** {2 Specialised matmul} *)

val matmul_dense : Mat.dense -> Mat.dense -> Mat.dense
val matmul_diagonal : Mat.diagonal -> Mat.diagonal -> Mat.diagonal

val matmul_banded : Mat.banded -> Mat.banded -> Mat.banded
(** The product band widens to [(lo_a + lo_b, hi_a + hi_b)], clamped
    to the order. *)

(** {2 Specialised solve} *)

val solve_dense : Mat.dense -> float array -> float array
(** Gaussian elimination with partial pivoting. Raises
    [Invalid_argument] on a non-square or singular system. *)

val solve_diagonal : Mat.diagonal -> float array -> float array

val solve_triangular : Mat.triangular -> float array -> float array
(** Forward or back substitution depending on [tr_upper]. *)

(** {2 Exact step counts} *)

val matvec_steps : Mat.t -> int
val matmul_steps : Mat.t -> int
val solve_steps : Mat.t -> int
