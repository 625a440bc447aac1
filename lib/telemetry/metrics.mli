(** The metric registry: named families of counters, gauges and
    log-scale histograms, fanned out by label sets. Families and series
    keep first-observation order, so expositions are stable across runs.

    Series are created on first use; [declare] only attaches help text.
    Using one name with two different kinds raises [Invalid_argument]. *)

type t

type kind = Counter | Gauge | Histo

val create : unit -> t

val set_histogram_factory : t -> (string -> Histogram.t) -> unit
(** Configure how histograms are built (bucket range/resolution) by
    family name; affects series created after the call. *)

val declare : t -> kind:kind -> name:string -> help:string -> unit
(** Idempotent; records help text for the exposition. *)

val inc : t -> ?labels:(string * string) list -> ?by:float -> string -> unit
(** Increment a counter (default [by = 1.0]). *)

val set : t -> ?labels:(string * string) list -> string -> float -> unit
(** Set a gauge. *)

val observe : t -> ?labels:(string * string) list -> string -> float -> unit
(** Record one observation into a histogram series. *)

type cell = { mutable v : float }
(** A counter or gauge series' value. A record of one float is stored
    unboxed, so [c.v <- c.v +. 1.0] allocates nothing. *)

val counter_handle :
  t -> ?labels:(string * string) list -> string -> cell
(** Resolve (creating if absent) a counter/gauge series once and return
    the underlying cell. [inc]/[set] re-resolve the series on every call
    (label sort + key render); hot paths hold the handle instead. The
    cell stays registered — expositions observe every update. *)

val histogram_handle :
  t -> ?labels:(string * string) list -> string -> Histogram.t
(** Same, for a histogram series. *)

val value : t -> ?labels:(string * string) list -> string -> float
(** Current value of one series (counters/gauges; a histogram yields its
    count). 0 for unknown names/labels. *)

val total : t -> string -> float
(** Sum of a family's series across all label sets. *)

val find_histogram :
  t -> ?labels:(string * string) list -> string -> Histogram.t option

val counter_series : t -> string -> ((string * string) list * float) list
(** All numeric series of a family, first-observation order. *)

val to_prometheus : t -> string
(** Prometheus text exposition: [# HELP]/[# TYPE] headers, counters and
    gauges as samples, histograms as cumulative [_bucket] series plus
    [_sum] and [_count]. *)

val to_json : t -> string
(** One JSON object; histogram series carry count/sum/min/max and
    log-interpolated p50/p90/p99. *)
