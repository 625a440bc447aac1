(** The dispatcher: one handler per request kind over the existing
    libraries, threaded through the memo caches and the per-request
    budget.

    Handlers are total over well-typed requests: parse errors, unknown
    names and rewrite non-termination become structured errors; budget
    exhaustion escapes as {!Budget.Exhausted} for the server to convert.
    Every dispatcher serves the process's one standard world,
    {!Gp_standard.Standard.world}, and never mutates it — [Check]
    requests carrying extra [.gpc] declarations run in a sandbox, a fork
    of that world, built once per [defs] cache entry.

    Every cache key is content, never a digest: the request text itself
    for [defs], [lint] and [rewrites], a structural encoding for the
    others. *)

type defs
(** A [.gpc] source's parsed declarations, and the sandbox a [Check]
    with those defs runs in (built by the first such check, with its
    own verdict memo), or the duplicate-declaration error that stopped
    it. *)

type caches
(** The dispatcher's seven LRUs: [.gpc] defs and their sandboxes, the
    built-in rules' certifications, and five answer LRUs holding one
    {!Request.entry} per key — [Closed] (pre-rendered obligation
    strings), [Linted], [Proved], [Optimized] (by mode and expression
    text; a hit does not parse) and [Computed] (by operation,
    structure, n and seed) answers. *)

val cache_stats : caches -> Lru.stats list
val clear_caches : caches -> unit

val cache_names : string array
(** Cache names in {!cache_stats} order. *)

val cache_counters : caches -> int array
(** The caches' live hit/miss counters, which the caches count into:
    [.(2i)] hits and [.(2i+1)] misses, one pair per cache in
    {!cache_names} order. Read it, never write it: the per-request
    snapshot reads it without allocating or calling. *)

type t

val create : cache_capacity:int -> unit -> t
(** Fresh caches over {!Gp_standard.Standard.world}, which the first
    dispatcher in the process builds. A sandbox is loaded inside a
    [service.sandbox] span when telemetry is on. *)

val caches : t -> caches

val handle :
  t ->
  caching:bool ->
  budget:Budget.t ->
  Request.t ->
  (Request.payload, Request.error) result
(** The answer; on a hit, the entry's [e_result] itself, not a copy.
    How it was served is left in {!cached} and {!entry}, so no tuple is
    built. May raise {!Budget.Exhausted} (the server maps it to
    [Over_budget]/[Timeout]); any other escaping exception is a
    dispatcher bug that the server reports as [Internal]. *)

val cached : t -> bool
(** Whether the last {!handle} that returned was served from the
    caches. *)

val entry : t -> Request.entry
(** The entry the last {!handle} that returned served its answer from,
    or {!Request.no_entry}: an answer LRU's entry on a hit, or with
    caching on the entry a check keeps in its verdict's memo entry, or
    a parse in its defs entry. *)
