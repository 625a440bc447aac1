(** The cluster wire vocabulary: what router and replicas exchange
    inside the simulator.

    Requests travel by workload index ([rid]) — the request array is
    shared, read-only, by every node, so a message carries the index
    and the metrics stay about counts and time, not payload bytes.
    Replies carry the serving replica's response fingerprint; the audit
    compares exactly these against a single-node replay.

    Every message that actually crosses the wire also carries a [tc]
    trace context ({!Gp_telemetry.Context.t}): the sender's (trace id,
    parent span id), which the receiver parents its spans under — this
    is how one request's journey links into a single cross-node tree.
    With tracing disabled every [tc] is the shared
    {!Gp_telemetry.Context.none} block (one word per message, zero
    allocation). Self-timer messages are local alarms, not wire
    traffic, and carry no context. *)

type msg =
  | Arrive of int  (** router self-timer: workload item [rid] arrives *)
  | Do_request of { rid : int; attempt : int; tc : Gp_telemetry.Context.t }
      (** router -> replica: serve this request (reads go to the shard
          owner or a failover successor; writes go to the leader).
          [tc] parents the replica's serve span under the router's
          attempt span. *)
  | Replicate of { rid : int; tc : Gp_telemetry.Context.t }
      (** leader -> follower: apply a write-path request too, keeping
          every replica's registry and caches in the same state. [tc]
          parents the follower's span under the leader's serve. *)
  | Reply of { rid : int; replica : int; fp : string; ok : bool;
               cached : bool; tc : Gp_telemetry.Context.t }
      (** replica -> router: served, with the response fingerprint.
          [tc] echoes the serve span. *)
  | Retry_check of { rid : int; attempt : int }
      (** router self-timer: if [rid] is still pending, resend with
          capped exponential backoff *)
  | Elect of { uid : int; tc : Gp_telemetry.Context.t }
      (** replica -> replicas: FloodMax round *)
  | Election_settle  (** replica self-timer: the round is over *)
  | Coord of { uid : int; tc : Gp_telemetry.Context.t }
      (** the round's winner announces itself *)
  | Start_election of { tc : Gp_telemetry.Context.t }
      (** router -> replicas: leader presumed dead; [tc] is the
          router's election root span *)
  | Ping of { tc : Gp_telemetry.Context.t }
      (** router -> leader: liveness probe. Router-driven so that
          replicas hold no recurring timers and the simulation
          quiesces once the router stops. *)
  | Heartbeat of { uid : int; tc : Gp_telemetry.Context.t }
      (** leader -> router: still alive; [tc] echoes the probe *)
  | Hb_check  (** router self-timer: probe the leader / declare it dead *)
  | Shutdown of { tc : Gp_telemetry.Context.t }
      (** router -> all: workload complete, quiesce *)
  | Shed of { rid : int; replica : int; tc : Gp_telemetry.Context.t }
      (** replica -> router: typed overload rejection — the replica's
          backlog exceeds its bound, so the request is refused rather
          than queued. The router records a shed verdict for the
          client; shedding is final, never a hang. *)
  | Reply_due of { rid : int; tc : Gp_telemetry.Context.t }
      (** replica self-timer: the simulated service time for [rid] has
          elapsed — send the memoized Reply (and the write fan-out) now.
          [tc] is the serve span the Reply will echo, not a wire
          context. *)
  | Join of { tc : Gp_telemetry.Context.t }
      (** router -> replica: you are on the ring as of now; the state
          handoff (replays of completed writes as {!Replicate}s)
          follows. *)
  | Retire of { tc : Gp_telemetry.Context.t }
      (** router -> replica: you left the ring — quiesce. In-flight
          reads against the leaver time out at the router and retry on
          the new ring's successors. *)
  | Elastic of { join : bool; replica : int }
      (** router self-timer: apply a scheduled membership change *)

val is_write : Gp_service.Request.t -> bool
(** Registry-mutating requests — the ones that must serialize through
    the leader and replicate to every node. [Parse] loads definitions,
    so it is the write path; every other pipeline is a read. *)
