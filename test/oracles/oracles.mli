(** The equivalence oracles: the plain first implementations the
    libraries' faster code is tested against. They live with the tests,
    not in the library APIs.

    {2 Dense structla kernels}

    Naive dense references for the structla kernels. They raise the same dimension errors as the kernels, e.g.
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

(** {2 Dense structla generation} *)

val generate_dense :
  structure:string -> n:int -> seed:int -> Gp_structla.Mat.dense option
(** The first generator: each structure drawn into an n×n dense array
    and made diagonally dominant over whole rows. [Mat.to_dense] of
    {!Gp_structla.Mat.generate} equals it bit for bit. *)

(** {2 Constraint propagation} *)

val closure_with_reference :
  ?max_depth:int ->
  lookup:(string -> Gp_concepts.Concept.t option) ->
  string ->
  Gp_concepts.Ctype.t list ->
  Gp_concepts.Propagate.obligation list
(** The seed implementation of {!Gp_concepts.Propagate.closure_with}
    (linear-scan dedup, quadratic in the closure size). Same
    obligations, same order, different complexity. *)

val closure_reference :
  ?max_depth:int ->
  Gp_concepts.Registry.t ->
  string ->
  Gp_concepts.Ctype.t list ->
  Gp_concepts.Propagate.obligation list
(** [closure_with_reference] over [Registry.find_concept reg]. *)

(** {2 Concept-guarded rewriting} *)

val rewrite_reference :
  ?only_certified:bool ->
  rules:Gp_simplicissimus.Rules.t list ->
  insts:Gp_simplicissimus.Instances.t ->
  Gp_simplicissimus.Expr.t ->
  Gp_simplicissimus.Engine.result
(** The seed linear-scan engine: every rule tried at every node,
    candidate carriers recomputed by scanning the whole entry list per
    rule, no guard memo, and the same {!Gp_simplicissimus.Engine.max_steps}
    budget. Semantically identical to {!Gp_simplicissimus.Engine.rewrite}. *)

(** {2 The wire format} *)

val request_of_line_ast :
  string -> (int option * Gp_service.Request.t, string) result
(** Parse the full {!Gp_telemetry.Json.t} tree, then validate fields.
    Accepts, rejects and words its errors exactly as
    {!Gp_service.Wire.request_of_line}. *)

val response_to_line_ast : Gp_service.Request.response -> string
(** Build the response's {!Gp_telemetry.Json.t} tree and print it: the
    bytes {!Gp_service.Wire.response_into} writes. *)
