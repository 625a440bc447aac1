(** The per-node state machines of the cluster: one router (node 0)
    fronting [n] replica servers (nodes 1..n), expressed as a
    {!Gp_distsim.Engine.algorithm} so every run is a deterministic,
    seeded simulation.

    The router shards reads by content key over a {!Hash_ring}, retries
    them on ring successors with capped exponential backoff, serializes
    registry-mutating requests through an elected leader (FloodMax over
    replica ids, re-run when heartbeats stop), and replays the whole
    workload to completion. Replicas run real {!Gp_service.Server}
    instances on the simulated clock; replies carry
    {!Gp_service.Request.response_fingerprint}, which is what the
    consistency audit compares. *)

(** Protocol timing knobs, all in simulated time units. *)
type tuning = {
  arrival_interval : float;  (** spacing between workload arrivals *)
  read_timeout : float;  (** base retry timeout for a dispatched request *)
  backoff_cap : float;  (** ceiling for the exponential retry delay *)
  settle : float;  (** election round length before the winner speaks *)
  hb_interval : float;  (** leader heartbeat period *)
  hb_timeout : float;
      (** heartbeat silence after which the router presumes the leader
          dead and starts a re-election *)
  queue_bound : int;
      (** router admission bound: arrivals past this many in-flight
          requests are shed at the door with a typed zero-latency
          verdict. 0 (the default) = unbounded, the pre-scenario
          behavior. *)
  service_time : float;
      (** simulated service time of a fresh, uncached serve. Replicas
          serialize: concurrent serves queue behind [busy_until]. 0 (the
          default) keeps serves instantaneous — bit-identical to the
          pre-scenario protocol. *)
  service_time_hit : float;  (** ... of a fresh serve answered by cache *)
  shed_backlog : float;
      (** replica overload bound: a replica whose serialized backlog
          exceeds this refuses fresh requests with a typed {!Proto.Shed}
          wire reply instead of queueing them. 0 = never shed. *)
  hot_capacity : int;
      (** slots in the router's space-saving hot-key table (0 = detector
          off) *)
  hot_promote_after : int;
      (** dispatch count at which a tracked key is promoted to
          replicated reads (0 = never promote) *)
  hot_spread : int;
      (** ring successors a promoted key's reads rotate over *)
}

val default_tuning : tuning
(** Arrivals every 1.0, retry base 8.0 capped at 64.0, elections settle
    in 3.0, heartbeats every 5.0, presumed dead after 16.0 — sized for
    the synchronous model's 1.0-per-hop delay with generous slack for
    the asynchronous ones. Overload control and hot-key promotion are
    off (all zeros), so a default-tuned run reproduces the pre-scenario
    event stream bit-for-bit. *)

(** What the router records when a request completes: who served it,
    the response fingerprint the audit will check, and the simulated
    arrival/completion times the latency series are built from. *)
type record = {
  rc_rid : int;  (** workload index *)
  rc_kind : Gp_service.Request.kind;
  rc_write : bool;  (** took the leader/replication path *)
  rc_replica : int;  (** node that served the accepted reply *)
  rc_fp : string;  (** {!Gp_service.Request.response_fingerprint} *)
  rc_ok : bool;
  rc_cached : bool;
  rc_attempts : int;  (** dispatches until a reply was accepted *)
  rc_shed : bool;
      (** the typed shed verdict: admitted-then-refused (overload) or
          refused at the router's full queue (admission). Shed records
          carry an empty [rc_fp] and are excluded from the consistency
          audit by construction. *)
  rc_arrive : float;  (** simulated arrival time *)
  rc_done : float;  (** simulated completion time *)
}

(** A scheduled mid-run membership change, applied by the router. *)
type elastic_event = {
  el_at : float;  (** simulated time *)
  el_join : bool;  (** true = join, false = leave *)
  el_replica : int;  (** node slot, 1-based *)
}

(** The run's traffic counts, kept on every run, traced or not, as
    plain counters in the manner of {!Gp_distsim.Engine.metrics}. The
    per-rid dispatch counts, grouped by [Request.key], give the per-key
    traffic; Σ [rc_attempts] matches their sum only while no write is
    answered late with its next attempt parked, and requests still
    pending at a horizon have no record at all. *)
type counts = {
  mutable serves : int;
      (** [Do_request]s answered, memoised re-serves included *)
  mutable replicates : int;  (** [Replicate] deliveries *)
  mutable retries : int;  (** [Retry_check] redispatches *)
  dispatched_to : int array;
      (** dispatches per target node slot (length [n_replicas + 1]) *)
  rid_dispatches : int array;  (** dispatches per rid *)
}

type route
(** A read's routing key ([Request.key]), the key's ring position, and
    its shard owner on the ring it was last read off. *)

type served
(** One replica's memoized response to one request. *)

(** Shared read-only input plus the mutable collection points the
    simulation writes into — the engine's own state is opaque after
    {!Gp_distsim.Engine.run} returns, so the harness reads results from
    here. Build one per run ({!Cluster.run} does). *)
type world = {
  reqs : Gp_service.Request.t array;
  routes : (Gp_service.Request.t, route) Hashtbl.t;
      (** each distinct read's route, by request content, filled on its
          first read dispatch. Make it empty. *)
  mutable ring : Hash_ring.t;
      (** the routing ring; elastic membership events swap it mid-run *)
  n_replicas : int;
      (** highest node slot — initially-active replicas plus any slots
          reserved for late joiners *)
  active : bool array;
      (** per-slot ring membership (length [n_replicas + 1], index 0
          unused); flipped by elastic events *)
  affinity : bool;
      (** true: shard reads by content key over [ring]; false:
          round-robin them (the s5 contrast arm) *)
  tuning : tuning;
  arrivals : float array option;
      (** open-loop arrival clock: absolute simulated arrival time per
          rid, strictly increasing. [None] = the fixed
          [arrival_interval] cadence, pre-scheduled as before. *)
  elastic : elastic_event list;  (** membership schedule, by time *)
  server_config : Gp_service.Server.config;
      (** template for each replica's server; its [now] field is
          replaced by the node's simulated clock *)
  servers : Gp_service.Server.t option array;
      (** filled at node init, indexed by node id (0 stays [None]) *)
  records : record option array;  (** indexed by rid, filled on completion *)
  served : served list array;
      (** indexed by rid: each replica's first response, one entry per
          replica that served the rid. Make it over a [[]] fill. *)
  mutable completed : int;
  mutable elections : int;  (** election rounds, counting the initial one *)
  mutable failovers : (float * float) list;
      (** (presumed-dead, new-coordinator-accepted) pairs, newest first *)
  mutable leader_log : (float * int) list;
      (** coordinator acceptances at the router, newest first *)
  mutable shed_admission : int;
      (** arrivals refused at the router's full queue *)
  mutable shed_overload : int;
      (** requests refused by a backlogged replica's {!Proto.Shed} *)
  mutable promotions : int;  (** hot keys promoted to replicated reads *)
  mutable promoted_keys : string list;  (** promoted keys, newest first *)
  mutable joined : int;  (** replicas that joined mid-run *)
  mutable left : int;  (** replicas that left mid-run *)
  mutable handoffs : int;
      (** completed writes replayed to joiners as {!Proto.Replicate} *)
  mutable peak_inflight : int;
      (** high-water mark of the router's pending table — the bounded
          queue's observed depth *)
  counts : counts;
      (** the traffic counts; make the arrays over a [0] fill *)
  trace_on : bool;
      (** distributed tracing master switch — every instrumentation
          site is guarded by exactly this one flag check, and tracing
          changes no message, RNG draw or event order *)
  node_traces : Gp_telemetry.Trace.t array;
      (** per-node span rings, indexed by node id ([[||]] when
          [trace_on] is false). Span ids are cluster-global, times are
          simulated units stored ×1e3, and every span carries its trace
          id in the ["trace"] attribute. *)
  mutable next_span : int;  (** cluster-global span-id counter *)
  mutable next_trace : int;
      (** aux trace-id counter: requests use their [rid] as trace id,
          elections and liveness probes draw fresh ids from here
          (initialised above the workload size) *)
  el0_trace : int;  (** the initial election's pre-allocated trace id *)
  el0_span : int;  (** ... and its root span id *)
}

type state
(** Opaque per-node machine state (router or replica). *)

val algorithm :
  world -> (state, Proto.msg) Gp_distsim.Engine.algorithm
(** The cluster as a distsim algorithm over a complete topology of
    [1 + world.n_replicas] nodes: node 0 runs the router machine, the
    rest run replica machines. All observable output lands in
    [world]. *)
