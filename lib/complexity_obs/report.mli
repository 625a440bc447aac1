(** The verdict and report layer: compare best-fit growth against the
    declared bound and render the result as a table, JSON, or
    Prometheus gauges through the telemetry registry.

    An operation {e passes} when the best-fitting vocabulary model is
    [Complexity.leq] its declared bound, or — for mixed declared bounds
    like O(n·b) or O(nnz) whose variables no single-variable vocabulary
    model is comparable with — when the declared bound itself fits the
    series within {!residual_tolerance}. Otherwise the declaration is
    {e violated}: the implementation grows faster than it promised. *)

type verdict = Pass | Violation

type entry = {
  e_series : Sweep.series;
  e_fits : Fit.fitted list;  (** every vocabulary fit, growth order *)
  e_best : Fit.fitted;  (** best vocabulary fit *)
  e_declared : Fit.fitted;  (** the declared bound fit to the same data *)
  e_slope : float;  (** log-log slope diagnostic *)
  e_verdict : verdict;
  e_ok : bool;  (** verdict matches the operation's expectation *)
}

val analyze : Sweep.series -> entry

val fitted_degree : Fit.fitted -> float
(** Numeric encoding of a fitted single-variable model for gauges and
    bench keys: poly degree + 0.5 per log factor (1 → 0, log n → 0.5,
    n → 1, n log n → 1.5, n² → 2, n³ → 3). *)

val table : Format.formatter -> entry list -> unit
(** The per-operation report table plus a one-line summary. *)

val to_json : entry list -> string
(** One JSON object: per-op fits, residuals, verdicts, expectations,
    and a top-level ["ok"]. *)

val export_metrics : Gp_telemetry.Metrics.t -> entry list -> unit
(** Set [gp_complexity_fitted_degree], [gp_complexity_residual] and
    [gp_complexity_violation] gauges, labelled by operation, into an
    existing metric registry (rendered by
    {!Gp_telemetry.Metrics.to_prometheus}). *)

val ok : entry list -> bool
(** Every verdict matches its expectation: genuine operations pass and
    planted oracles are flagged. *)
