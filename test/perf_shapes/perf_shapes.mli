(** The payload shapes [perfbench/gen.py] sends, regenerated byte for
    byte from the same key. A key [k] and [k + 180] differ only in the
    names they embed, so keys [0..179] cover every shape. *)

val period : int
(** [180]: every shape recurs with this period in the key. *)

val lint_source : int -> string
(** The STLlint program of a [lint] request: [1 + k mod 4] erase-in-loop
    blocks, every other one buggy when [k mod 3 = 0]. *)

val gpc_source : int -> string
(** The [.gpc] defs of a [parse] request or a sandboxed [check]: one
    concept, one type and one op. *)

val optimize_expr : int -> string
(** The expression of an [optimize] request: one of four redex shapes
    (by [k mod 4]), wrapped [k mod 3] times in a multiplication by the
    carrier's one. *)
