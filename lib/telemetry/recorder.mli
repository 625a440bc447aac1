(** The flight recorder: a bounded ring of per-request {e dossiers} —
    the always-on black box that keeps enough context to explain and
    deterministically re-execute recent requests.

    Steady-state cost is O(1) per request (ring write plus an O(k)
    slowest-k probe); the heavyweight payload — full span tree, metric
    deltas — is retained only for {e interesting} requests: any
    non-["ok"] outcome (errors, over-budget, timeout) and the slowest-k
    seen so far, which {!slowest} also keeps whole after the ring evicts
    them. The recorder stores service-agnostic strings and spans
    and owns the dump format in both directions; [gp_service] fills
    dossiers in and owns replay ([Gp_service.Flight]). *)

type dossier = {
  do_id : int;  (** the request id the server assigned *)
  do_kind : string;  (** request kind, or ["invalid"] *)
  do_wire : string Lazy.t;
      (** re-servable wire line; the raw input line when served from
          one (or when the request did not parse), a canonical
          serialization otherwise. Lazy — request serialization is a
          measurable per-request cost, and the line is only needed at
          export or replay time *)
  do_generation : int;  (** registry generation the request saw *)
  do_config : string;  (** canonical server-config line *)
  do_config_fp : string;  (** digest of [do_config] *)
  do_outcome : string;  (** ["ok"] or the error-code name *)
  do_detail : string;  (** error detail; [""] on ok *)
  do_cached : bool;
  do_steps : int;
  do_dur_ns : float;
      (** root-span duration; when telemetry is off, the latency the
          server observed into its histogram *)
  do_response_fp : string Lazy.t;
      (** digest of the canonical response (kind + result; ids, cache
          provenance and step accounting excluded) — what replay
          compares. Lazy, like [do_wire] *)
  do_cache_chain : (string * int * int) list;
      (** per-cache (name, hits, misses) deltas for this request *)
  do_spans : Trace.span list;  (** interesting requests only *)
  do_metric_deltas : (string * float) list;
      (** sink metric family total deltas; interesting requests only *)
}

type t

val create : ?capacity:int -> ?slowest:int -> unit -> t
(** Defaults: 512-dossier ring, slowest-k of 8. Raises
    [Invalid_argument] when [capacity < 1] or [slowest < 0]. *)

val record : t -> dossier -> unit
(** Record one dossier, stripping spans and metric deltas unless the
    outcome is non-ok or the duration ranks among the slowest-k. *)

val wants_payload : t -> ok:bool -> dur_ns:float -> bool
(** Would {!record} retain the heavyweight payload for a dossier with
    this outcome and duration? Lets the filler skip assembling spans
    and metric deltas that would only be stripped. *)

val slowest : t -> dossier list
(** The up-to-k slowest dossiers recorded so far, ascending by
    [do_dur_ns]: the k largest under [Float.compare], which ranks [nan]
    below every number. They are held outside the ring, whole, so their
    span trees survive eviction; the dump ({!to_jsonl}) is the ring
    only. *)

val dossiers : t -> dossier list
(** Retained dossiers, oldest first. *)

val capacity : t -> int

val recorded : t -> int
(** Total dossiers ever recorded. *)

val retained : t -> int

val dropped : t -> int
(** Dossiers overwritten by the ring bound. *)

val clear : t -> unit

val dossier_to_json : dossier -> string
(** One dossier as a single-line JSON object. *)

val to_jsonl : t -> string
(** Retained dossiers as JSONL (one {!dossier_to_json} line each),
    oldest first — the [gp serve --flight] dump and [gp replay] input
    format. *)

val of_jsonl : string -> (dossier list, string) result
(** Decode a whole dump; blank lines are skipped, errors carry the
    1-based line number. *)

val load : string -> (dossier list, string) result
(** {!of_jsonl} on a file's contents; [Error] on I/O failure. *)

val pp_summary : Format.formatter -> t -> unit

val pp_slowest : Format.formatter -> t -> unit
(** The {!slowest} dossiers, slowest first: a [slowest requests] header,
    then [#id kind duration] and the span tree of each. *)
