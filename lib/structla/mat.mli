(** Matrix representations for structure-aware linear algebra.

    One packed representation per structure in the concept taxonomy
    (dense, diagonal, banded, triangular, symmetric, sparse CSR).
    Packing is exact — {!to_dense} reproduces the packed source
    bit-for-bit — which makes detector soundness a checkable equality.
    Generation is deterministic per [(structure, n, seed)] and writes
    each structure's storage directly, so the serving layer ships only
    those scalars over the wire, the replayer regenerates the identical
    matrix, and a packed structure is never expanded on the way. *)

type dense = { n_rows : int; n_cols : int; d : float array }
(** Row-major. *)

type diagonal = { dg_n : int; dg : float array }

type banded = { bd_n : int; bd_lo : int; bd_hi : int; bd : float array }
(** Row-packed band storage, width [lo+hi+1] per row. *)

type triangular = { tr_n : int; tr_upper : bool; tr : float array }
(** Full row-major storage; the dead triangle is zero. *)

type symmetric = { sy_n : int; sy : float array }
(** Packed lower triangle. *)

type csr = {
  cs_rows : int;
  cs_cols : int;
  cs_ptr : int array;
  cs_idx : int array;
  cs_val : float array;
}

type t =
  | Dense of dense
  | Diagonal of diagonal
  | Banded of banded
  | Triangular of triangular
  | Symmetric of symmetric
  | Csr of csr

(** {2 Dense basics} *)

val dense_check : string -> dense -> unit
(** [dense_check op m] raises [Invalid_argument] unless [m.d] holds
    exactly [n_rows * n_cols] entries. The packers and the dense kernels
    call it once per call, before their loops. *)

val imin : int -> int -> int
val imax : int -> int -> int
(** Int-typed [min] and [max] for loop bounds: [Stdlib.min] and [max]
    compare polymorphically, through a C call. *)

val dense_create : int -> int -> dense
val dense_init : int -> int -> (int -> int -> float) -> dense
val dense_get : dense -> int -> int -> float
val dense_equal : dense -> dense -> bool
val dense_close : ?eps:float -> dense -> dense -> bool
val vec_close : ?eps:float -> float array -> float array -> bool

(** {2 Structure names and carriers} *)

val structure_name : t -> string
val structure_names : string list
val known_structure : string -> bool

val carrier : t -> string
(** Registry type name the representation checks against (declared by
    {!Decls.declare}): ["dmat"], ["diagmat"], ["bandmat"], ["trimat"],
    ["symmat"] or ["csrmat"]. *)

val dims : t -> int * int
val nnz_csr : csr -> int

val stored : t -> int
(** Entries the representation stores, each visited once by a scan of
    it: [r*c] dense, [n] diagonal, the in-range band cells, [n*n]
    triangular (full storage), [n(n+1)/2] symmetric, [nnz] CSR. *)

(** {2 Expansion and packing} *)

val to_dense : t -> dense

val pack_diagonal : dense -> diagonal option
(** [None] unless the matrix is exactly diagonal; same strictness for
    the other packers. Every packer raises [Invalid_argument] on a
    malformed [dense] (see {!dense_check}). *)

val pack_banded : lo:int -> hi:int -> dense -> banded option
val pack_triangular : dense -> triangular option
val pack_symmetric : dense -> symmetric option
val pack_csr : dense -> csr

val as_diagonal : t -> diagonal option
val as_banded : t -> banded option
val as_triangular : t -> triangular option
val as_symmetric : t -> symmetric option
val as_csr : t -> csr
(** Conversions the overload candidates use: a kernel guarded by a
    concept may receive any representation whose carrier models it. *)

(** {2 The draw stream} *)

type stream
(** The generator's own L64X128 LXM stream: the algorithm behind the
    standard library's [Random] states, seeded the same way, written
    inline in the drawing loops so that a draw neither boxes a float nor
    calls across a module. Mutable: each draw advances it. *)

val stream : int array -> stream
(** [stream seed] starts where the stdlib state [make seed] does. *)

val stream_of_state : string -> stream
(** From the 32 state bytes the stdlib's [to_binary_string] writes after
    its 5-byte prefix, normalised as its [of_binary_string] normalises
    them. Raises [Invalid_argument] on another length. *)

val draw_uniform : stream -> float array -> unit
(** Fills the array in index order with the draws the stdlib's
    [float st 2.0 -. 1.0] gives. *)

val draw_sparse : stream -> float array -> unit
(** Fills each cell in index order with the stdlib's
    [if int st 20 = 0 then float st 2.0 -. 1.0 else 0.0]: the CSR
    generator's coin flip and draw. *)

(** {2 Deterministic generation} *)

val generate : structure:string -> n:int -> seed:int -> t option
(** A matrix of order [n] exhibiting the named structure, generated
    straight into that structure's representation (strictly diagonally
    dominant, so it is also solve-safe); [None] on an unknown structure
    name. Banded is stored with [lo = hi = min 4 (n-1)], triangular as
    upper, CSR without explicit zeros. The values, and so [to_dense] of
    the result, are fixed by [(structure, n, seed)]. Raises
    [Invalid_argument] when [n < 1]. *)

val generate_vec : n:int -> seed:int -> float array

(** {2 Checksums} *)

val checksum_vec : float array -> string
(** Digest of the exact IEEE bit patterns — replay-stable. *)

val checksum_dense : dense -> string

val checksum : t -> string
(** [checksum m = checksum_dense (to_dense m)], computed from the stored
    entries without expanding [m]. *)

val pp : Format.formatter -> t -> unit
