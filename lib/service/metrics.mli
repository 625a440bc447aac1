(** Serving observability: a thin veneer over the shared telemetry
    registry ({!Gp_telemetry.Metrics}). Per-kind request counters and
    log-scale latency histograms with {e interpolated} p50/p90 in the
    text report, plus machine-readable JSON and Prometheus expositions
    of the same registry. *)

type t

val create : unit -> t

val registry : t -> Gp_telemetry.Metrics.t
(** The backing registry — the families are ordinary metrics
    ([gp_requests_total{kind}], [gp_request_errors_total{kind,code}],
    [gp_request_latency_ns{kind}], ...). *)

val observe :
  t ->
  kind:Request.kind option ->
  result:(Request.payload, Request.error) result ->
  cached:bool ->
  ns:float ->
  unit
(** Count one served request under its kind ([None]: a line that did
    not parse, labelled ["invalid"]) and observe its latency. A kind's
    series are resolved on its first observation; after that a call
    allocates nothing and compares no strings. *)

val requests : t -> int
val errors : t -> int

val report : ?cache_stats:Lru.stats list -> t -> string
(** The rendered text report. Quantiles are within-bucket
    log-interpolated estimates (see {!Gp_telemetry.Histogram.quantile}),
    accurate to one bucket ratio (~1.58x). *)

val report_json : ?cache_stats:Lru.stats list -> ?gc:string -> t -> string
(** Machine-readable twin of {!report}: request/error totals, cache
    stats, and the full registry dump
    ({!Gp_telemetry.Metrics.to_json}). [gc], when given, is a
    pre-rendered JSON object of GC counter totals inserted as a ["gc"]
    field (see {!Server.report_json}). *)

val to_prometheus : t -> string
(** Prometheus text exposition of the backing registry. *)
