(** The tracing artifact of one cluster run: per-node span lanes plus
    the run shape (replica count, workload size, seed), assembled into
    cross-node journeys, dumped/loaded as deterministic JSONL, exported
    to Chrome with one [pid] lane per node, and validated.

    Trace ids below the workload size [n] are request journeys; ids at
    and above [n] are auxiliary traces (election rounds, liveness
    probes). Completed requests must assemble into well-formed trees;
    aux traces may legitimately carry orphaned spans when the message
    that would have closed a parent was dropped — those are surfaced,
    never failed and never attached to a root. *)

type t = {
  ts_replicas : int;
      (** the highest replica slot: lanes run from 0 (the router) to it *)
  ts_n : int;  (** workload size: trace ids below this are requests *)
  ts_seed : int;
  ts_lanes : (int * Gp_telemetry.Trace.span list) list;  (** node order *)
}

val of_result : Gp_cluster.Cluster.result -> t
(** Wrap a traced run's [r_traces] (empty lanes when the run was not
    traced). [ts_replicas] is the highest replica slot of the run, an
    elastic joiner's included. *)

val journeys : t -> Journey.journey list
(** Assemble every trace, sorted by trace id. *)

val request_journey : t -> int -> Journey.journey option
(** The journey of one workload request, by rid. *)

val is_request : t -> int -> bool
(** Is this trace id a workload request (vs an aux trace)? *)

(** {2 Dump / load} *)

val dump : t -> string
(** JSONL: a header line ([gp_trace] version, shape, seed, span count)
    then one line per span in node-lane order. The causal context rides
    as a ["trace/span"] [ctx] field rendered by
    {!Gp_telemetry.Context.render_into}; times are simulated units with
    a fixed six-decimal rendering. Deterministic — two same-seed runs
    dump identical bytes. *)

val load : string -> (t, string) result
(** Inverse of {!dump}. [Error] describes the first malformed line,
    prefixed with its 1-based number (["line <n>: "], blank lines
    counted); a header claiming more than
    {!Gp_cluster.Cluster.max_replicas} replicas is malformed. *)

(** {2 Chrome export} *)

val to_chrome : t -> string
(** Chrome [chrome://tracing] / Perfetto JSON with one process lane per
    node: a [process_name] metadata event names each lane, every span
    lands in its recording node's [pid]. *)

(** {2 Validation} *)

type validation = {
  v_requests : int;  (** request traces with at least one span *)
  v_well_formed : int;
  v_malformed : (int * string) list;
      (** [(trace id, reason)] for request traces that are not a
          well-formed tree rooted at [cluster.request] *)
  v_aux : int;  (** election/probe traces *)
  v_aux_orphans : int;  (** aux traces carrying orphaned spans *)
}

val validate : t -> validation
(** Check every assembled request journey: exactly one root, named
    [cluster.request], every parent resolved, causal nesting holds. *)

val validation_ok : validation -> bool
(** No malformed request traces. *)

val pp_validation : Format.formatter -> validation -> unit

(** {2 Tree view} *)

val pp_journey : t -> Format.formatter -> Journey.journey -> unit
(** Render one journey as an indented tree: recording node, span name,
    simulated start/duration, attributes; orphans listed last with
    their missing parent id. *)
