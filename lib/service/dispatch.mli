(** The dispatcher: one handler per request kind over the existing
    libraries, threaded through the memo caches and the per-request
    budget.

    Handlers are total over well-typed requests: parse errors, unknown
    names and rewrite non-termination become structured errors; budget
    exhaustion escapes as {!Budget.Exhausted} for the server to convert.
    The shared standard registry is never mutated — [Check] requests
    carrying extra [.gpc] declarations get a per-request sandbox, a fork
    of the shared registry. *)

type caches = {
  closures : string list Lru.t;
      (** pre-rendered obligation strings — what the [Closed] payload
          ships, so hits skip per-request rendering *)
  defs : Gp_concepts.Lang.item list Lru.t;
  lint : Request.payload Lru.t;
      (** [Linted] payloads by program hash, messages pre-rendered *)
  cert : Gp_simplicissimus.Certify.certification list Lru.t;
  proofs : (string * bool) list Lru.t;
  rewrites : Gp_simplicissimus.Engine.result Lru.t;
  numerics : Request.payload Lru.t;
      (** [Computed] payloads keyed by (operation, structure, n, seed) *)
}

val create_caches : capacity:int -> caches
val cache_stats : caches -> Lru.stats list
val clear_caches : caches -> unit

val cache_names : string array
(** Cache names in {!cache_stats} order. *)

val cache_counters_into : caches -> int array -> unit
(** Allocation-free twin of {!cache_stats} for per-request snapshot
    deltas: writes hit/miss counters into a caller-owned array —
    [dst.(2i)] hits, [dst.(2i+1)] misses, one pair per cache in
    {!cache_names} order (so [dst] must hold at least
    [2 * Array.length cache_names] slots). *)

type t

val create :
  declare_standard:(Gp_concepts.Registry.t -> unit) ->
  cache_capacity:int ->
  unit ->
  t
(** [declare_standard] populates the shared registry with the standard
    world, once. A [Check] request carrying defs loads them into a
    {!Gp_concepts.Registry.fork} of the shared registry, inside a
    [service.sandbox] span when telemetry is on. *)

val registry : t -> Gp_concepts.Registry.t
val caches : t -> caches

val handle :
  t ->
  caching:bool ->
  budget:Budget.t ->
  Request.t ->
  (Request.payload, Request.error) result * bool
(** [(result, served_from_cache)]. May raise {!Budget.Exhausted} (the
    server maps it to [Over_budget]/[Timeout]); any other escaping
    exception is a dispatcher bug that the server reports as
    [Internal]. *)
