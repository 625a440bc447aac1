(** The toolchain's metric families, read off a span record: libraries
    carry their work counts as attributes of their spans, and this fold
    is the one place that maps them to the Prometheus families
    [gp trace --metrics] prints. *)

val of_trace :
  ?index_rebuilds:int ->
  Gp_telemetry.Trace.t ->
  (Gp_telemetry.Metrics.t, string) result
(** A fresh registry holding one fold over the trace's spans, oldest
    first, plus [gp_registry_index_rebuilds_total] when [index_rebuilds]
    (the caller's {!Gp_concepts.Registry.index_rebuilds} delta, default
    0) is positive. A span counts when it carries its counts, so one
    whose work raised out of it counts nothing, as its library would
    have counted nothing. [Error] when the ring dropped spans
    ({!Gp_telemetry.Trace.dropped} [> 0]): the families would be
    short. *)
