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
  flight_capacity : int;  (** flight-recorder dossier ring; 0 disables *)
  flight_slowest : int;  (** slowest-k dossiers kept with span trees *)
}

val default_config : config
(** caching on, 256-entry caches, 100k steps, no timeout,
    [Unix.gettimeofday], 512-dossier flight ring with slowest-k of 8. *)

val config_to_line : config -> string
(** Canonical single-line JSON rendering of every behaviour-shaping
    field ([now] excluded — it is process wiring, not behaviour). This
    is what dossiers embed, so [gp replay] can rebuild the exact
    server a request ran under. *)

val validate_config : config -> (config, string) result
(** The range check every entry point applies: [cache_capacity >= 1];
    [max_steps], [flight_capacity] and [flight_slowest] [>= 0]; a [timeout] finite and [>= 0]. [Error] names the field. *)

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

val create : ?config:config -> unit -> t
(** A server with fresh caches, metrics and flight recorder. Every
    server in the process serves the one standard world,
    {!Gp_standard.Standard.world}, built on first use and never mutated:
    a [check] carrying [.gpc] defs loads them into a per-request fork of
    it. Raises [Invalid_argument] on a config {!validate_config}
    rejects. *)

val config : t -> config
val metrics : t -> Metrics.t

type flight =
  (Request.t, (Request.payload, Request.error) result) Gp_telemetry.Recorder.t
(** A server's flight recorder: it keeps a request served without its
    wire line, and each response's result, and serializes and digests
    them on read. *)

val flight : t -> flight option
(** The flight recorder, when [config.flight_capacity > 0]. Every
    request served — including unparseable lines — leaves a dossier;
    error/over-budget/timeout and slowest-k dossiers additionally retain
    their span tree. This is the server's one record of its slowest
    requests ({!Gp_telemetry.Recorder.slowest}). *)

val caches : t -> Dispatch.caches
val cache_stats : t -> Lru.stats list
val clear_caches : t -> unit

val handle : ?id:int -> t -> Request.t -> Request.response
(** Process one request to completion. Never raises. When a telemetry
    sink is installed ([Gp_telemetry.Tel.install]) each request runs
    under a [service.request] root span, and the flight recorder ranks
    the request by that span's duration (else by its observed latency);
    the response is identical either way. *)

val process : t -> Request.t list -> Request.response list
(** Serve each request with {!handle}, in order: responses in request
    order, ids consecutive. *)

val serve_line : t -> string -> Request.response option
(** Decode and serve one wire line ([None] for a blank line). The
    server decodes through its own {!Line_memo}, made on the first
    call, so a line it has seen twice before is not decoded again; the
    response is the one a fresh decode would give. *)

val serve_channel : t -> in_channel -> out_channel -> int
(** Serve request lines from a channel until EOF, writing one response
    line each; returns the number of responses written. *)

val report : t -> string
(** The metrics report including cache hit-ratio tables. *)

val report_json : t -> string
(** Machine-readable twin of {!report}: totals, cache stats, and the
    full metric-registry dump ({!Metrics.report_json}). *)
