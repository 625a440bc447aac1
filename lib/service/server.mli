(** The serving engine: per-request budgets and deadlines, dispatch
    through the memo caches, metrics.

    Single-threaded and deterministic: each request is served to
    completion before the next (overload control lives in the cluster
    router), and the clock is injectable, so timeout behaviour and
    latency accounting reproduce exactly under test. Total over arbitrary input — a
    malformed or exploding request yields a structured error response,
    never a crash. *)

type config = {
  caching : bool;
  cache_capacity : int;  (** entries per LRU cache *)
  max_steps : int;  (** per-request step budget *)
  timeout : float option;  (** per-request deadline, seconds *)
  now : unit -> float;  (** injectable clock, seconds *)
  slow_log : int;  (** slowest requests kept with their span trees *)
  flight_capacity : int;  (** flight-recorder dossier ring; 0 disables *)
  flight_slowest : int;  (** slowest-k dossiers kept with span trees *)
}

val default_config : config
(** caching on, 256-entry caches, 100k steps, no timeout,
    [Unix.gettimeofday], 5-entry slow log, 512-dossier flight ring with
    slowest-k of 8. *)

val config_to_line : config -> string
(** Canonical single-line JSON rendering of every behaviour-shaping
    field ([now] excluded — it is process wiring, not behaviour). This
    is what dossiers embed, so [gp replay] can rebuild the exact
    server a request ran under. *)

val validate_config : config -> (config, string) result
(** The range check every entry point applies: [cache_capacity >= 1];
    [max_steps], [slow_log], [flight_capacity] and [flight_slowest]
    [>= 0]; a [timeout] finite and [>= 0]. [Error] names the field. *)

val config_of_json : Gp_telemetry.Json.t -> (config, string) result
(** Decode a parsed config object: missing fields take their
    {!default_config} values, unknown fields are ignored, and [now] is
    always the default clock. A wrongly typed field or a config
    {!validate_config} rejects is an [Error] starting ["bad config: "]. *)

val config_of_line : string -> (config, string) result
(** Inverse of {!config_to_line}: {!Gp_telemetry.Json.parse}, then
    {!config_of_json}. A line that does not parse is an [Error] starting
    ["bad config line: "]. *)

val config_fingerprint : config -> string
(** Digest of {!config_to_line} — dossiers carry it as [config_fp]. *)

type t

val create :
  ?config:config -> declare_standard:(Gp_concepts.Registry.t -> unit) -> unit -> t
(** [declare_standard] populates the server's shared registry (and any
    per-request sandbox) with the standard world. Raises
    [Invalid_argument] on a config {!validate_config} rejects. *)

val config : t -> config
val metrics : t -> Metrics.t

val flight : t -> Gp_telemetry.Recorder.t option
(** The flight recorder, when [config.flight_capacity > 0]. Every
    request served — including unparseable lines — leaves a dossier;
    error/over-budget/timeout and slowest-k dossiers additionally retain
    their span tree and metric deltas. *)

val registry : t -> Gp_concepts.Registry.t
val caches : t -> Dispatch.caches
val cache_stats : t -> Lru.stats list
val clear_caches : t -> unit

val handle :
  ?id:int -> ?context:Gp_telemetry.Context.t -> t -> Request.t ->
  Request.response
(** Process one request to completion. Never raises. When a telemetry sink is installed
    ([Gp_telemetry.Tel.install]) each request runs under a
    [service.request] root span and feeds the slow-request log; the
    response is identical either way. [context], when given and
    non-{!Gp_telemetry.Context.none}, is the inbound distributed trace
    context — the root span is stamped with [trace]/[parent_span]
    attributes so this node's service trace joins the cluster-wide
    tree. *)

val process : t -> Request.t list -> Request.response list
(** Serve each request with {!handle}, in order: responses in request
    order, ids consecutive. *)

val serve_line : t -> string -> Request.response option
(** Decode and serve one wire line ([None] for a blank line). *)

val serve_channel : t -> in_channel -> out_channel -> int
(** Serve request lines from a channel until EOF, writing one response
    line each; returns the number of responses written. *)

val report : t -> string
(** The metrics report including cache hit-ratio tables. *)

val report_json : t -> string
(** Machine-readable twin of {!report}: totals, cache stats, and the
    full metric-registry dump ({!Metrics.report_json}). *)

type slow_entry = {
  se_id : int;
  se_kind : string;
  se_ns : float;  (** root-span duration *)
  se_spans : Gp_telemetry.Trace.span list;  (** the request's span tree *)
}

val slow_requests : t -> slow_entry list
(** The [config.slow_log] slowest requests seen so far, slowest first.
    Populated only while a telemetry sink is installed. *)

val pp_slow : Format.formatter -> slow_entry list -> unit
(** Render the slow-request log as indented span trees. *)
