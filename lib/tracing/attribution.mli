(** Deterministic tail-latency attribution: decompose each completed
    request's end-to-end simulated latency into causal segments read
    off its assembled journey tree, and name the dominant cause.

    Segments partition the root [cluster.request] interval: the winning
    attempt is {e service}, attempts that were retried or superseded
    are {e retry}, park spans (queued with no coordinator) are
    {e election stall}, and the uncovered remainder — retry back-off
    the router sits out between attempts — is {e queueing}. *)

type segments = {
  sg_rid : int;
  sg_kind : string;  (** request kind, from the root span's attrs *)
  sg_total : float;  (** arrival to completion, simulated units *)
  sg_queue : float;  (** time covered by no attempt/park span *)
  sg_retry : float;  (** attempts that were retried or superseded *)
  sg_stall : float;  (** parked waiting for a coordinator *)
  sg_service : float;  (** the attempt that produced the answer *)
  sg_attempts : int;
}

type cause = Queueing | Retry | Election_stall | Service

val cause_name : cause -> string
(** ["queueing"], ["retry"], ["election-stall"], ["service"]. *)

val dominant : segments -> cause
(** The largest segment; ties blame the mechanism before the work
    (queueing, then retry, then stall, then service). *)

val of_journeys : Journey.journey list -> segments list
(** One entry per journey with a single [cluster.request] root. *)

val slowest : ?k:int -> segments list -> segments list
(** The [k] (default 10) largest totals, slowest first; rid breaks
    ties, so the order is deterministic. *)

val pp_table : Format.formatter -> segments list -> unit
(** One aligned row per request: segments, attempt count, dominant
    cause. *)

type summary = {
  su_requests : int;
  su_by_cause : (cause * int) list;  (** dominant-cause census *)
  su_mean_total : float;
  su_mean_queue : float;
  su_mean_retry : float;
  su_mean_stall : float;
  su_mean_service : float;
}

val summarize : segments list -> summary

val pp_summary : Format.formatter -> summary -> unit
