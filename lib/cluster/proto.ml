(* The cluster message vocabulary. Requests are referenced by workload
   index: the request array is shared read-only state of the harness, so
   messages stay small and the simulator's metrics measure protocol
   traffic, not payload serialization.

   Every message that crosses the wire carries a [tc] trace context —
   the (trace id, parent span id) pair the receiver parents its spans
   under. When tracing is off every [tc] is the shared [Context.none]
   block, so the field costs one word per message and no allocation.
   Self-timer messages (Arrive, Retry_check, Election_settle, Hb_check)
   are local alarms, not wire traffic, and carry none. *)

module Context = Gp_telemetry.Context

type msg =
  | Arrive of int
  | Do_request of { rid : int; attempt : int; tc : Context.t }
  | Replicate of { rid : int; tc : Context.t }
  | Reply of { rid : int; replica : int; fp : string; ok : bool;
               cached : bool; tc : Context.t }
  | Retry_check of { rid : int; attempt : int }
  | Elect of { uid : int; tc : Context.t }
  | Election_settle
  | Coord of { uid : int; tc : Context.t }
  | Start_election of { tc : Context.t }
  | Ping of { tc : Context.t }
  | Heartbeat of { uid : int; tc : Context.t }
  | Hb_check
  | Shutdown of { tc : Context.t }
  | Shed of { rid : int; replica : int; tc : Context.t }
  | Reply_due of { rid : int; tc : Context.t }
  | Join of { tc : Context.t }
  | Retire of { tc : Context.t }
  | Elastic of { join : bool; replica : int }

(* Parse loads concept/type/model definitions — in a deployed cluster
   that is a registry mutation, so it serializes through the leader and
   replicates everywhere. All other pipelines are pure reads. *)
let is_write req =
  match Gp_service.Request.kind req with
  | Gp_service.Request.Kparse -> true
  | _ -> false
