(** Automatic structure detection.

    [classify] inspects a matrix in any representation and returns the
    most refined structure it satisfies, in that structure's
    representation. The answer depends only on the dense matrix the
    input stands for: [classify m = classify (Dense (to_dense m))],
    structurally. Soundness is by construction — a new representation
    is only ever built by the strict {!Mat} packers, so
    [Mat.to_dense (classify m) = Mat.to_dense m] exactly — and the
    classification is deterministic (fixed priority: diagonal,
    triangular, symmetric, banded when the band is at most half the
    order, CSR when at most a quarter of the entries are nonzero, else
    dense).

    The profile is read from the stored entries only (a CSR's symmetry
    by a binary-search lookup of each entry's mirror), and an input
    whose own structure is the answer comes back physically unchanged:
    detecting a generated packed matrix costs O({!Mat.stored}), not
    O(n²). An input is expanded only when the answer is another
    structure, which for generated matrices happens at small orders. *)

type profile = {
  pr_lo : int;  (** max sub-diagonal distance of a nonzero *)
  pr_hi : int;  (** max super-diagonal distance of a nonzero *)
  pr_nnz : int;
  pr_symmetric : bool;
}

val profile : Mat.t -> profile
(** The profile of [Mat.to_dense m], from the stored entries. *)

val classify : Mat.t -> Mat.t
(** Emits a [structla.detect] telemetry span and a
    [gp_structla_detect_total] counter labelled by result. *)
