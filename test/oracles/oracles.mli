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

(** {2 The stdlib draw stream} *)

val draw_uniform_reference : Random.State.t -> float array -> unit
(** Each cell, in index order, [Random.State.float st 2.0 -. 1.0]: the
    draws {!Gp_structla.Mat.draw_uniform} makes from its own stream. *)

val draw_sparse_reference : Random.State.t -> float array -> unit
(** Each cell, in index order, [Random.State.int st 20 = 0] and on
    success a draw as above, else [0.0]: the draws
    {!Gp_structla.Mat.draw_sparse} makes. *)

(** {2 Structure detection} *)

val classify_reference : Gp_structla.Mat.t -> Gp_structla.Mat.t
(** The first classify: the exact {!Gp_structla.Detect.profile} of every
    input, the fixed priority, and the input itself when the strict
    packers would build it again ([compare] equal), else what they
    build. {!Gp_structla.Detect.classify} reads full storage only until
    the answer is decided and returns the same matrix, physically the
    input exactly when this does. *)

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
  rules:Gp_simplicissimus.Rules.t list ->
  insts:Gp_simplicissimus.Instances.t ->
  Gp_simplicissimus.Expr.t ->
  Gp_simplicissimus.Engine.result
(** The seed linear-scan engine: every rule tried at every node,
    candidate carriers recomputed by scanning the whole entry list per
    rule, no guard memo, and the same {!Gp_simplicissimus.Engine.max_steps}
    budget. Semantically identical to {!Gp_simplicissimus.Engine.rewrite}. *)

(** {2 Propositions} *)

val free_vars_reference :
  string list -> Gp_athena.Logic.prop -> string list
(** [free_vars_reference acc p]: [acc] extended with the free variables
    of [p], gathered into lists subformula by subformula.
    {!Gp_athena.Logic.occurs_free} [x p] holds exactly when [x] is in
    [free_vars_reference [] p]. *)

val alpha_equal_reference : Gp_athena.Logic.prop -> Gp_athena.Logic.prop -> bool
(** Both propositions converted to de Bruijn form (binders unnamed, bound
    variables numbered by binder distance, free ones kept by name in their
    own constructor) and compared structurally: the answer
    {!Gp_athena.Logic.alpha_equal} gives. *)

(** {2 Theories}

    The axiom lists {!Gp_athena.Theory} wrote by hand before it parsed
    the registry's statements: what the derived theories must equal,
    name for name, in order, proposition for proposition. The abelian
    group lists its axioms in the refinement chain's order (the monoid's,
    then both inverses, then commutativity). *)

val chain : string -> Gp_athena.Theory.axiom list
(** {!Gp_algebra.Decls.chain}'s statements parsed, over the concepts'
    own symbols ([op], [id], [lt], [add], ...). *)

val semigroup_reference : Gp_athena.Theory.mapping -> Gp_athena.Theory.axiom list
val monoid_reference : Gp_athena.Theory.mapping -> Gp_athena.Theory.axiom list

val group_minimal_reference :
  Gp_athena.Theory.mapping -> Gp_athena.Theory.axiom list

val abelian_group_reference :
  Gp_athena.Theory.mapping -> Gp_athena.Theory.axiom list

val strict_weak_order_reference : lt:string -> Gp_athena.Theory.axiom list
val ring_reference : Gp_athena.Theory.ring_mapping -> Gp_athena.Theory.axiom list

(** {2 Axioms on values} *)

val holds :
  (string -> Gp_algebra.Decls.value list -> Gp_algebra.Decls.value) ->
  Gp_athena.Logic.prop ->
  Gp_algebra.Decls.value list ->
  bool
(** [holds interp p values]: [p]'s leading universal quantifiers bound
    to [values], in order, and its body evaluated, every symbol applied
    through [interp]. An atom holds when [interp] answers [VBool true],
    an equation when {!Gp_simplicissimus.Expr.value_equal} does; [->]
    evaluates its conclusion only when its hypothesis holds. Raises
    [Invalid_argument] unless there is one value per leading quantifier
    and no quantifier below them. *)

val row_interpretation :
  Gp_algebra.Decls.carrier ->
  string ->
  Gp_algebra.Decls.value list ->
  Gp_algebra.Decls.value
(** A carrier row's meaning of the algebraic concepts' symbols, as
    {!Gp_simplicissimus.Eval} evaluates the row's expressions: [op] and
    [inverse] are the row's operation and inverse applied to literals,
    [id] the row's identity (3x3 on the matrix rows, the dimension of
    test_algebra's matrices). Raises [Invalid_argument] on another
    symbol, or on [inverse] for a row without one. *)

val ring_interpretation :
  Gp_algebra.Decls.ring ->
  string ->
  Gp_algebra.Decls.value list ->
  Gp_algebra.Decls.value
(** A ring's meaning of Ring's and Field's symbols, read from its two
    rows: [add], [zero] and [neg] are the additive row's [op], [id] and
    [inverse]; [mul], [one] and [inv] the multiplicative row's. *)

(** {2 The wire format} *)

val request_of_line_ast :
  string -> (int option * Gp_service.Request.t, string) result
(** Parse the full {!Gp_telemetry.Json.t} tree, then validate fields.
    Accepts, rejects and words its errors exactly as
    {!Gp_service.Wire.request_of_line}. *)

val response_to_line_ast : Gp_service.Request.response -> string
(** Build the response's {!Gp_telemetry.Json.t} tree and print it: the
    bytes {!Gp_service.Wire.response_into} writes. *)

val escape_into_reference : Buffer.t -> string -> unit
(** The per-byte escaper: the bytes {!Gp_telemetry.Json.escape_into}
    writes, one [add_char] or escape per input byte. *)

val string_body_reference : string -> int -> (string * int, string) result
(** [string_body_reference src pos] decodes, byte by byte, the string
    literal whose body starts at [pos] (just past the opening quote):
    its contents and the position just past the closing quote, or the
    error text {!Gp_telemetry.Json.string_body} raises there, position
    included. *)

(** {2 The flight recorder} *)

val dossier_recorder :
  ?capacity:int ->
  ?slowest:int ->
  caches:string array ->
  unit ->
  (string, string) Gp_telemetry.Recorder.t
(** A recorder whose requests are wire lines and whose responses are
    their own fingerprints: {!record_dossier} stores any dossier in it,
    and reading the slot back rebuilds that dossier. *)

val record_dossier :
  ?as_request:bool ->
  (string, string) Gp_telemetry.Recorder.t ->
  caches:string array ->
  Gp_telemetry.Recorder.dossier ->
  unit
(** Record a dossier field by field. [caches] are the recorder's; every
    cache of the dossier's chain must be among them. With [as_request]
    the wire line goes in as a request, serialized on read, instead of
    as a line copied into the slot. *)
