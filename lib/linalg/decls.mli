(** The Fig. 3 Vector Space concept: genuinely multi-type (V and S are
    both parameters; it refines AbelianGroup<V> and Field<S>, with mult
    both ways), with BOTH models declared on complex vectors —
    (cvec, complex) and (cvec, real) — which the associated-type
    anti-pattern (the scalar as an associated type, also declared)
    cannot express. Requires the algebraic concepts
    ([Gp_algebra.Decls.declare]) to be present. *)

val declare : Gp_concepts.Registry.t -> unit
