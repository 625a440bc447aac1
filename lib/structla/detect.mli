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
    structure, which for generated matrices happens at small orders.

    A square input in full storage ([Dense], [Triangular]) is read only
    until its answer is decided: the two off-diagonal corners, then the
    strict lower triangle, then the rest, stopping once no unread entry
    can change the answer (a dense matrix after about a quarter of its
    entries, an upper triangle after its lower half). The answer is the
    one the full profile gives. *)

type profile = {
  pr_lo : int;  (** max sub-diagonal distance of a nonzero *)
  pr_hi : int;  (** max super-diagonal distance of a nonzero *)
  pr_nnz : int;
  pr_symmetric : bool;
}

val profile : Mat.t -> profile
(** The exact profile of [Mat.to_dense m], from every stored entry. *)

val classify : Mat.t -> Mat.t
(** Emits a [structla.detect] telemetry span whose [structure]
    attribute names the result. *)

val classify_reads : Mat.t -> Mat.t * int
(** [classify] with the number of entries it read: the entries the full
    storage scan reads until its answer is decided, or the stored entries
    of a packed input, plus [rows * cols] when the answer is a new
    representation (the packer's scan of the expansion). Same
    telemetry. *)
