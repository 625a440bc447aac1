(** Deterministic replay: {!re_serve} re-serves recorded requests on a
    fresh server — fresh caches over the process's standard world — and
    compares {!Request.response_fingerprint}s. The fingerprint excludes
    ids, cache provenance and step accounting, so a cold-cache replay
    must reproduce a warm-cache recording bit-for-bit; a divergence
    means the service broke determinism (or the recording was tampered
    with). {!replay} runs it over a flight dump (read by
    {!Gp_telemetry.Recorder.load}); [Gp_cluster.Cluster]'s audits run
    it over a cluster run's records. *)

(** {2 The re-serve loop} *)

type input =
  | Wire of string
      (** served by {!Server.serve_line}; a blank line is a
          [Bad_request] *)
  | Decoded of int * Request.t
      (** a request and its id, served by {!Server.handle} *)

type 'a divergence = {
  dv_item : 'a;  (** the caller's tag for the recorded item *)
  dv_recorded_fp : string;  (** the fingerprint that was recorded *)
  dv_response : Request.response;  (** what re-serving produced instead *)
  dv_response_fp : string;
  dv_spans : Gp_telemetry.Trace.span list;
      (** the re-served request's spans; [[]] without a sink *)
}

val re_serve :
  Server.config -> ('a * input * string) list -> int * 'a divergence list
(** [re_serve config items] builds one server from [config], its
    flight recorder off, re-serves each [(tag, input, recorded_fp)] in
    order and returns the number of matches and the divergences, in
    item order. It installs no telemetry sink ({!replay} does). *)

(** {2 Flight-dump replay} *)

type outcome = {
  rep_config : Server.config;  (** the config replay ran under *)
  rep_total : int;
  rep_matched : int;
  rep_generation_mismatches : int;
      (** dossiers recorded under a registry generation different from
          the process's standard world's — reported as a warning, not
          a failure *)
  rep_diverged : Gp_telemetry.Recorder.dossier divergence list;
      (** recorded order *)
}

val replay :
  ?config:Server.config ->
  Gp_telemetry.Recorder.dossier list ->
  (outcome, string) result
(** {!re_serve} each dossier's wire line, in order, under a fresh
    telemetry sink (installed for the duration, previous state
    restored), so divergences carry the replayed span tree. [config]
    defaults to decoding the {e first} dossier's recorded config line;
    [Error] when the list is empty or that line does not decode. *)

val all_matched : outcome -> bool

val pp_outcome : Format.formatter -> outcome -> unit
(** The counts, then per divergence the wire line, recorded vs replayed
    outcome and fingerprint, and both span trees when present. *)
