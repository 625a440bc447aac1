(** Dense rectangular matrices and the CLACRM mixed-precision kernel
    (Section 2.4).

    [gemm_mixed] multiplies a complex matrix by a real matrix using the
    cheap complex-times-real product (2 real multiply-adds per step);
    [gemm_promoted] is the baseline a scalar-as-associated-type design
    forces (promote, then 4 multiplies + 4 adds per step). Same result,
    half the floating-point work. *)

type cmat
(** Complex matrix, split re/im storage. *)

type rmat
(** Real matrix. *)

val cmat_create : int -> int -> cmat
val rmat_create : int -> int -> rmat
val cmat_init : int -> int -> (int -> int -> Complexf.t) -> cmat
val rmat_init : int -> int -> (int -> int -> float) -> rmat
val cmat_get : cmat -> int -> int -> Complexf.t
val cmat_close : ?eps:float -> cmat -> cmat -> bool

val gemm_mixed : cmat -> rmat -> cmat
(** The CLACRM kernel. Raises [Invalid_argument] on dimension
    mismatch. *)

val promote : rmat -> cmat
val gemm_complex : cmat -> cmat -> cmat
val gemm_promoted : cmat -> rmat -> cmat

val flops_mixed : m:int -> k:int -> n:int -> int
val flops_promoted : m:int -> k:int -> n:int -> int
(** Analytic operation counts; the promoted/mixed ratio is exactly 2. *)
