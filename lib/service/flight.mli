(** Deterministic replay of a flight-recorder dump.

    {!replay} rebuilds a server from a dossier's recorded config line —
    fresh caches, fresh registry — re-serves each dossier's wire line in
    recorded order, and compares {!Request.response_fingerprint}s. The
    fingerprint excludes ids, cache provenance and step accounting, so a
    cold-cache replay must reproduce a warm-cache recording bit-for-bit;
    a divergence means the service broke determinism (or the dump was
    tampered with). The dump is read by {!Gp_telemetry.Recorder.load}. *)

(** {2 Replay} *)

type divergence = {
  dv_dossier : Gp_telemetry.Recorder.dossier;  (** what was recorded *)
  dv_response : Request.response;  (** what replay produced instead *)
  dv_response_fp : string;
  dv_spans : Gp_telemetry.Trace.span list;
      (** the replayed request's span tree, for diffing against
          [dv_dossier.do_spans] *)
}

type outcome = {
  rep_config : Server.config;  (** the config replay ran under *)
  rep_total : int;
  rep_matched : int;
  rep_generation_mismatches : int;
      (** dossiers recorded under a registry generation different from
          the replay server's — reported as a warning, not a failure *)
  rep_diverged : divergence list;  (** recorded order *)
}

val replay :
  ?config:Server.config ->
  declare_standard:(Gp_concepts.Registry.t -> unit) ->
  Gp_telemetry.Recorder.dossier list ->
  (outcome, string) result
(** Re-execute the dossiers in order against a freshly built server
    under a fresh telemetry sink (installed for the duration, previous
    state restored). [config] defaults to decoding the {e first}
    dossier's recorded config line; [Error] when the list is empty or
    that line does not decode. *)

val all_matched : outcome -> bool

val pp_divergence : Format.formatter -> divergence -> unit
(** Wire line, recorded vs replayed outcome/fingerprint, and both span
    trees when present. *)

val pp_outcome : Format.formatter -> outcome -> unit
