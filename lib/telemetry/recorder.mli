(** The flight recorder: a bounded ring of per-request {e dossiers} —
    the always-on black box that keeps enough context to explain and
    deterministically re-execute recent requests.

    Steady-state cost is O(1) per request (slot writes plus an O(k)
    slowest-k probe); the heavyweight payload — the full span tree,
    whose attributes carry the libraries' work counts — is retained only
    for {e interesting} requests: any
    non-["ok"] outcome (errors, over-budget, timeout) and the slowest-k
    seen so far, which {!slowest} also keeps whole after the ring evicts
    them.

    The ring is a slot store: each dossier field sits in a preallocated
    per-slot array (ints and floats unboxed, the wire line copied into
    a byte ring the slots share, the cache chain as int deltas), and
    dossier records are built only on read ({!dossiers}, {!slowest},
    {!to_jsonl}). So {!record} leaves the GC nothing of its own to
    promote, and {!create} forces no collection: every slot array is
    made with an immediate or static fill. The [request] and [response]
    fills given to {!create} must therefore be immediate or constant
    literals (a statically allocated block), never values built at run
    time.

    The recorder is parameterised over the service's request ['q] and
    response ['r] values, which it keeps as they are and interprets only
    on read, through the functions given to {!create}. It owns the dump
    format in both directions; [gp_service] fills the slots in and owns
    replay ([Gp_service.Flight]). *)

type dossier = {
  do_id : int;  (** the request id the server assigned *)
  do_kind : string;  (** request kind, or ["invalid"] *)
  do_wire : string;
      (** re-servable wire line; the raw input line when served from
          one (or when the request did not parse), a canonical
          serialization otherwise *)
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
  do_response_fp : string;
      (** digest of the canonical response (kind + result; ids, cache
          provenance and step accounting excluded) — what replay
          compares *)
  do_cache_chain : (string * int * int) list;
      (** per-cache (name, hits, misses) deltas for this request, in the
          recorder's cache order, caches the request did not touch
          left out *)
  do_spans : Trace.span list;  (** interesting requests only *)
}

type ('q, 'r) t

(** How a request is recorded: the raw line it arrived on, copied into
    the slot, or the request itself, serialized only on read. *)
type 'q wire = Line of string | Request of 'q

val create :
  ?capacity:int ->
  ?slowest:int ->
  caches:string array ->
  request:'q ->
  wire:(id:int -> 'q -> string) ->
  response:'r ->
  fingerprint:(kind:string -> 'r -> string) ->
  unit ->
  ('q, 'r) t
(** Defaults: 512-dossier ring, slowest-k of 8. [caches] names the
    caches a chain counts, in chain order. [request] and [response] are
    the fills of their slot arrays, and must be immediate or static
    (see above). [wire ~id q] is the wire line of request [q] recorded
    under id [id]; [fingerprint ~kind r] is the response digest of [r]
    for a request of kind [kind]. Raises [Invalid_argument] when
    [capacity < 1] or [slowest < 0]. *)

val record :
  ('q, 'r) t ->
  id:int ->
  kind:string ->
  wire:'q wire ->
  generation:int ->
  config:string ->
  config_fp:string ->
  outcome:string ->
  detail:string ->
  cached:bool ->
  steps:int ->
  dur_ns:float ->
  response:'r ->
  chain:int array ->
  spans:Trace.span list ->
  unit
(** Record one request; each argument is the {!dossier} field of the
    same name. [chain] holds the (hits, misses) deltas of each cache, in
    the order given to {!create}, as consecutive pairs; it is copied,
    so the caller may reuse it. Spans are kept only when the outcome is
    non-ok or the duration ranks among the slowest-k. [kind], [outcome], [config] and [config_fp] are stored
    as they are: on the steady-state path they should be static or
    long-lived strings. Raises [Invalid_argument] when [chain] does not
    hold two ints per cache. *)

val slowest : ('q, 'r) t -> dossier list
(** The up-to-k slowest dossiers recorded so far, ascending by
    [do_dur_ns]: the k largest under [Float.compare], which ranks [nan]
    below every number. They are held outside the ring, whole, so their
    span trees survive eviction; the dump ({!to_jsonl}) is the ring
    only. *)

val dossiers : ('q, 'r) t -> dossier list
(** Retained dossiers, oldest first. *)

val capacity : ('q, 'r) t -> int

val recorded : ('q, 'r) t -> int
(** Total dossiers ever recorded. *)

val retained : ('q, 'r) t -> int

val dropped : ('q, 'r) t -> int
(** Dossiers overwritten by the ring bound. *)

val clear : ('q, 'r) t -> unit

val dossier_to_json : dossier -> string
(** One dossier as a single-line JSON object. *)

val to_jsonl : ('q, 'r) t -> string
(** Retained dossiers as JSONL (one {!dossier_to_json} line each),
    oldest first — the [gp serve --flight] dump and [gp replay] input
    format. *)

val of_jsonl : string -> (dossier list, string) result
(** Decode a whole dump; blank lines are skipped, errors carry the
    1-based line number. Keys a dossier line carries beyond the
    {!dossier} fields are ignored, so dumps written when dossiers still
    kept metric deltas load as they are. *)

val load : string -> (dossier list, string) result
(** {!of_jsonl} on a file's contents; [Error] on I/O failure. *)

val pp_summary : Format.formatter -> ('q, 'r) t -> unit

val pp_slowest : Format.formatter -> ('q, 'r) t -> unit
(** The {!slowest} dossiers, slowest first: a [slowest requests] header,
    then [#id kind duration] and the span tree of each. *)
