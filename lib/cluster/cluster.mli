(** The cluster harness: build a simulated sharded/replicated serving
    cluster, run a workload through it under seeded failure injection,
    and audit the answers against a single-node replay.

    Everything is simulated time inside {!Gp_distsim.Engine}: equal
    configurations and workloads give bit-identical results — metrics,
    latencies, failover timings and all — independent of wall clock or
    host load. The audit closes the loop on consistency: every accepted
    reply carries a {!Gp_service.Request.response_fingerprint}, and
    {!audit} re-serves the same workload on one bare
    {!Gp_service.Server} and diffs digests. Failover may serve a late
    answer, never a wrong one. *)

(** Failure injection, in cluster vocabulary (node 0 is the router,
    replicas are nodes [1..n]). Translated onto
    {!Gp_distsim.Engine.failure} for the run. *)
type failure =
  | Drop of float  (** each protocol message dropped with this prob *)
  | Crash_replica of { replica : int; at : float }
      (** crash-stop replica (1-based node id) at simulated time [at] *)
  | Crash_leader of { at : float }
      (** crash the initial election winner — the highest replica id *)
  | Partition of { groups : int list list; from_ : float; until : float }
      (** network islands over node ids (router included) active while
          [from_ <= now < until] *)

type config = {
  replicas : int;
  vnodes : int;  (** ring points per replica *)
  affinity : bool;
      (** shard reads by content key (true) or round-robin (false) *)
  timing : Gp_distsim.Engine.timing;
  seed : int;
  failures : failure list;
  tuning : Node.tuning;
  arrivals : float array option;
      (** open-loop arrival process: absolute simulated arrival time per
          workload index, strictly increasing (build one with
          [Gp_scenario.Arrivals]). [None] = the classic fixed
          [tuning.arrival_interval] cadence, scheduled exactly as before
          so pre-scenario runs stay bit-identical. *)
  elastic : Node.elastic_event list;
      (** mid-run membership schedule. Joins may name node slots above
          [replicas]; the topology is sized for the highest slot named.
          Joins require [affinity] (round-robin has no ring to join). *)
  server_config : Gp_service.Server.config;
      (** per-replica server template; [now] is replaced by each node's
          simulated clock *)
  max_time : float;  (** simulation safety horizon *)
  max_events : int;
  trace : bool;
      (** collect distributed traces: one span ring per node, causal
          contexts on every wire message. Changes nothing simulated — no
          message, RNG draw, or event differs from an untraced run (one
          flag check per instrumentation site) — and nothing counted:
          [r_counts] is kept either way. *)
}

val default_config : config
(** 3 replicas, 64 vnodes, key affinity, synchronous timing, seed 42,
    no failures, {!Node.default_tuning}; servers cache (256 entries)
    with no timeout, no flight recorder, and a zero clock template. *)

type result = {
  r_config : config;
  r_requests : Gp_service.Request.t array;
  r_records : Node.record option array;
      (** per workload index; [None] = never completed *)
  r_completed : int;
  r_metrics : Gp_distsim.Engine.metrics;
  r_elections : int;  (** election rounds, counting the initial one *)
  r_failovers : (float * float) list;
      (** (leader presumed dead, new coordinator accepted), oldest
          first — the failover-latency series *)
  r_leaders : (float * int) list;
      (** coordinator acceptances at the router, oldest first *)
  r_cache_hits : int;  (** summed over every replica's memo caches *)
  r_cache_misses : int;
  r_shed_admission : int;
      (** arrivals refused at the router's full bounded queue *)
  r_shed_overload : int;
      (** requests refused by a backlogged replica's typed
          {!Proto.Shed} reply *)
  r_promotions : int;  (** hot keys promoted to replicated reads *)
  r_promoted_keys : string list;  (** promoted keys, oldest first *)
  r_joined : int;  (** replicas that joined the ring mid-run *)
  r_left : int;  (** replicas that left the ring mid-run *)
  r_handoffs : int;
      (** completed writes replayed to joiners as state handoff *)
  r_peak_inflight : int;
      (** high-water mark of the router's pending table — the observed
          depth of the bounded queue *)
  r_moved_keys : int;
      (** distinct workload keys whose shard owner changed across the
          elastic schedule (precomputed against shadow rings) *)
  r_moved_bound : int;
      (** the minimal-movement allowance: keys on the joiner's new arcs
          or the leaver's old ones. Consistent hashing guarantees
          [r_moved_keys <= r_moved_bound] (in fact equality). *)
  r_counts : Node.counts;
      (** the run's traffic counts (serves, replicates, retries,
          dispatches per target slot and per rid), kept on every run —
          [Gp_tracing.Fleet] reads its report off them and the
          records *)
  r_traces : (int * Gp_telemetry.Trace.span list) list;
      (** per-node completed spans, node order ([[]] unless
          [config.trace]): span ids are cluster-global, times are
          simulated units ×1e3, every span carries its trace id in the
          ["trace"] attribute — feed them to
          [Gp_tracing.Journey.assemble] / [Gp_tracing.Trace_set] *)
}

val max_replicas : int
(** The highest replica slot a run may use (1024), initial replicas and
    elastic joiners alike. {!run} rejects a config above it, and
    [Gp_tracing.Trace_set.load] a trace dump whose header claims more,
    so every trace dump a run writes loads again. *)

val run :
  ?config:config ->
  Gp_service.Request.t array ->
  result
(** Simulate the full workload: requests arrive at the router on a
    fixed cadence, shard/replicate/retry per the protocol, until every
    request completes (or the safety horizon cuts the run short —
    check [r_completed]). Shed verdicts count as completions: overload
    control rejects, it never hangs. Raises [Invalid_argument] if
    [config.replicas < 1], if a replica slot exceeds {!max_replicas},
    if [config.arrivals] is shorter than the workload, or on a
    malformed elastic schedule (replica < 1, non-positive time, or a
    join without key affinity). *)

(** {2 Derived series} *)

val messages_per_request : result -> float
(** Protocol messages sent per completed request (timers excluded). *)

val hit_ratio : result -> float
(** Cluster-wide cache hit ratio, over all replicas. *)

val mean_latency : result -> float
(** Mean simulated arrival-to-completion time over completed requests. *)

val max_latency : result -> float

val retried : result -> int
(** Completed requests that needed more than one dispatch. *)

val shed_total : result -> int
(** Admission plus overload sheds. *)

val shed_ratio : result -> float
(** Shed verdicts as a fraction of completed requests. *)

val latency_percentile : result -> float -> float
(** Nearest-rank latency percentile over served (non-shed) records;
    the quantile is in [0,1], e.g. [latency_percentile r 0.99]. *)

val pp_summary : Format.formatter -> result -> unit
(** Human-readable run summary: completion, traffic, elections,
    failovers, latency, caches. Deterministic per (config, workload). *)

(** {2 Consistency audit} *)

type audit = {
  au_total : int;  (** workload size *)
  au_compared : int;  (** completed requests whose digests were diffed *)
  au_missing : int;  (** requests the cluster never completed *)
  au_shed : int;
      (** typed shed verdicts, excluded from comparison by construction
          (they carry no fingerprint). Always
          [au_compared + au_missing + au_shed = au_total]. *)
  au_divergences : int Gp_service.Flight.divergence list;
      (** digest mismatches in record order, each tagged with its rid:
          [dv_recorded_fp] is the cluster's reply, [dv_response_fp] the
          single server's *)
}

val audit_ok : audit -> bool
(** Nothing missing and nothing divergent. *)

val audit : result -> audit
(** Re-serve each completed, unshed record's request, in arrival order,
    through {!Gp_service.Flight.re_serve}: one fresh server built from
    the same server template, fed the decoded requests (no wire
    render or parse, no telemetry sink), each record's fingerprint
    diffed against the single-node response. *)

val pp_audit : Format.formatter -> audit -> unit

(** {2 Dump / offline audit} *)

val dump : result -> string
(** JSONL document: a header line (cluster shape, seed, the server
    config line) then one line per completed record in rid order, each
    embedding the request wire object and the reply fingerprint.
    Deterministic — two same-seed runs dump identical bytes. *)

val audit_dump : string -> (audit, string) Stdlib.result
(** Audit a {!dump} document offline: rebuild the server config from
    the header, re-serve each embedded request single-node through
    {!Gp_service.Flight.re_serve}, diff the fingerprints. Shed records
    are skipped (and counted in [au_shed]). [Error] describes a
    malformed document, prefixed with the 1-based number of the
    offending line (blank lines counted). These are rejected with the
    wire's positioned convention (the byte position of the field's key
    in its line), e.g. ["line 3: at 42: bad field \"shed\" (want a
    bool)"]: a negative
    header [n]; a non-int header [shed]/[promoted]/[joined]/[left]; a
    record [rid] outside [[0, n)] or repeated from an earlier record (so
    a duplicated record cannot hide a missing one); a non-bool record
    [shed]. *)
