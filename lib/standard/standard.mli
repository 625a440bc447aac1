(** The standard world: the concepts, types, operations and models that
    the algebra, sequence, graph, linear-algebra and structured
    linear-algebra libraries declare, library by library in a fixed
    order. The CLI, the bench harness, the service and the tests all
    build it through here. *)

val world : unit -> Gp_concepts.Registry.t
(** The process's one standard world, built on first use and shared by
    every {!Gp_service.Server} in the process. Nothing may mutate it:
    code that needs more declarations loads them into a
    {!Gp_concepts.Registry.fork} of it, as sandboxed [check] requests
    do. Its generation is that of a fresh {!registry}. *)

val registry : unit -> Gp_concepts.Registry.t
(** A fresh, private registry holding the standard world, for callers
    that declare into it. *)
