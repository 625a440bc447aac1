(** The standard world: the concepts, types, operations and models that
    the algebra, sequence, graph, linear-algebra and structured
    linear-algebra libraries declare. The CLI, the bench harness and the
    tests all build it through here. *)

val declare : Gp_concepts.Registry.t -> unit
(** Declare the whole standard world into a registry, library by
    library in a fixed order. *)

val registry : unit -> Gp_concepts.Registry.t
(** A fresh registry holding the standard world. *)
