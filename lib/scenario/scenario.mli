(** The scenario catalog: named, seeded cluster experiments.

    A scenario bundles a workload, an open-loop {!Arrivals} process, a
    {!Gp_cluster.Cluster.config} (overload control, hot-key promotion,
    elastic membership), and a set of declared expectations — fairness
    floors, movement bounds, promotion requirements. {!run} executes it
    and reduces the cluster result to one {!outcome}; an empty
    [o_violations] means every declared expectation held.

    Everything is simulated time: a (scenario, seed, quick) triple
    replays bit-identically, which is what the committed bench gates
    diff against. *)

type t
(** A catalog entry. *)

val name : t -> string
val summary : t -> string
(** One-line description, shown by [gp scenario list]. *)

val catalog : t list
(** [steady], [diurnal], [hotkey_flood], [stampede], [elastic],
    [tenants], and the headline [million]. *)

val find : string -> t option

(** Per-tenant service accounting for multi-tenant scenarios. *)
type tenant_stat = {
  tn_name : string;
  tn_requests : int;
  tn_served : int;  (** completed with a real (non-shed) verdict *)
  tn_shed : int;
  tn_ratio : float;  (** served / requests *)
  tn_floor : float;  (** the scenario's declared minimum for [tn_ratio] *)
}

(** What a scenario run reduces to. Latencies are simulated units over
    served (non-shed) records. *)
type outcome = {
  o_name : string;
  o_replicas : int;
  o_requests : int;
  o_completed : int;  (** includes typed shed verdicts — never a hang *)
  o_shed : int;
  o_shed_ratio : float;
  o_peak_queue : int;  (** bounded-queue high-water mark *)
  o_p50 : float;
  o_p99 : float;
  o_max : float;
  o_hit_ratio : float;
  o_promotions : int;
  o_promoted : string list;
  o_joined : int;
  o_left : int;
  o_handoffs : int;
  o_moved : int;  (** keys whose shard owner changed across the schedule *)
  o_moved_bound : int;  (** the minimal-movement allowance *)
  o_tenants : tenant_stat list;
  o_violations : string list;
      (** unmet declared expectations; empty = the scenario passed *)
  o_audit : Gp_cluster.Cluster.audit option;  (** when run with [~audit] *)
  o_result : Gp_cluster.Cluster.result;  (** the full cluster result *)
}

val ok : outcome -> bool
(** No violations (audit failures, when audited, are violations too). *)

val run :
  ?quick:bool ->
  ?seed:int ->
  ?audit:bool ->
  t ->
  outcome
(** Execute the scenario. [quick] (default false) scales the workload
    down ~8x for smoke runs — same shape, same checks. [audit] (default
    false) additionally replays every served answer on a single node
    and diffs fingerprints; shed verdicts are excluded from the diff by
    construction and counted in [au_shed]. Deterministic per (scenario,
    seed, quick). *)

val pp_outcome : Format.formatter -> outcome -> unit
(** The per-scenario report: completion, shedding, latency percentiles,
    promotions, elasticity, tenant floors, audit, and a final
    PASS/FAIL line. *)

(** {2 The flood contrast arm}

    The hot-key flood's pieces, exposed so bench s10 can run the same
    experiment twice — promotion on and off — and report the p99 and
    miss-ratio deltas as the mitigation's measured win. *)

val flood_n : quick:bool -> int
val flood_reqs : seed:int -> int -> Gp_service.Request.t array

val flood_config :
  quick:bool -> seed:int -> promote:bool -> int -> Gp_cluster.Cluster.config
(** [~promote:false] zeroes the hot-key detector and changes nothing
    else — the control arm. *)
