(** Cluster-wide fleet metrics, read off a {!Gp_cluster.Cluster.result}:
    per-node traffic from the engine's counters, request-latency
    percentiles from the records, traffic totals and per-shard
    dispatches from the run's counts, and a hot-key signal from its
    per-rid dispatch counts. Every run keeps these, traced or not. *)

val hot_keys : Gp_cluster.Cluster.result -> (string * int) list
(** Content keys whose dispatch count is at least twice the mean over
    all dispatched keys, hottest first (key breaks ties —
    deterministic). The per-rid dispatch counts, grouped by
    [Request.key]. *)

type percentiles = {
  pc_count : int;
  pc_p50 : float;
  pc_p90 : float;
  pc_p99 : float;
  pc_max : float;
}

val request_percentiles :
  Gp_cluster.Cluster.result -> percentiles option
(** Cluster-wide request-latency percentiles (simulated units): one
    default-geometry {!Gp_telemetry.Histogram} observing
    [rc_done -. rc_arrive] for each non-shed record; [None] when there
    is none. *)

val pp_report : Format.formatter -> Gp_cluster.Cluster.result -> unit
(** The fleet report: per-node sent/delivered traffic (from the engine's
    per-node counters), latency percentiles, traffic totals, per-shard
    dispatches in ascending replica order, hot keys. Deterministic per
    (config, workload), and the same for a traced and an untraced
    run. *)
