(* Deterministic replay of a flight-recorder dump.

   A dossier carries everything a re-execution needs: the canonical wire
   line, the config line the server ran under, and a digest of the
   canonical response. Replay rebuilds a server from the recorded config
   (fresh caches, fresh registry), re-serves each wire line in recorded
   order under a fresh telemetry sink, and compares response
   fingerprints. The fingerprint covers kind + full payload/error and
   excludes ids, cache provenance and step accounting — so a replay from
   cold caches must match a recording made with warm ones, which is
   exactly the cache-transparency property the service guarantees.

   Divergences are collected, not raised: the caller (gp replay, bench
   s4) decides whether to print span-tree diffs or fail hard. *)

module Recorder = Gp_telemetry.Recorder
module Trace = Gp_telemetry.Trace
module Tel = Gp_telemetry.Tel

let ( let* ) = Result.bind

(* ------------------------------------------------------------------ *)
(* Replay                                                              *)
(* ------------------------------------------------------------------ *)

type divergence = {
  dv_dossier : Recorder.dossier;
  dv_response : Request.response;
  dv_response_fp : string;
  dv_spans : Trace.span list;
}

type outcome = {
  rep_config : Server.config;
  rep_total : int;
  rep_matched : int;
  rep_generation_mismatches : int;
  rep_diverged : divergence list;
}

let blank_line_response =
  { Request.rsp_id = 0; rsp_kind = None;
    rsp_result =
      Error { Request.code = Request.Bad_request; detail = "blank wire line" };
    rsp_cached = false; rsp_steps = 0 }

let replay ?config ~declare_standard ds =
  match ds with
  | [] -> Error "empty flight dump: nothing to replay"
  | first :: _ ->
    let* config =
      match config with
      | Some c -> Ok c
      | None -> Server.config_of_line first.Recorder.do_config
    in
    Tel.with_installed ~trace_capacity:65536 (fun _sink ->
        (* the replay server serves the same requests under the same
           budgets; its own flight ring stays off — we are reading a
           recording, not making one *)
        let server =
          Server.create ~config:{ config with flight_capacity = 0 }
            ~declare_standard ()
        in
        let generation =
          Gp_concepts.Registry.generation (Server.registry server)
        in
        let mismatches = ref 0 in
        let matched = ref 0 in
        let diverged = ref [] in
        List.iter
          (fun d ->
            if d.Recorder.do_generation <> generation then incr mismatches;
            let m = Tel.mark () in
            let rsp =
              match Server.serve_line server (Lazy.force d.Recorder.do_wire)
              with
              | Some rsp -> rsp
              | None -> blank_line_response
            in
            let fp = Request.response_fingerprint rsp in
            if String.equal fp (Lazy.force d.Recorder.do_response_fp) then
              incr matched
            else
              diverged :=
                { dv_dossier = d; dv_response = rsp; dv_response_fp = fp;
                  dv_spans = Tel.spans_since m }
                :: !diverged)
          ds;
        Ok
          { rep_config = config;
            rep_total = List.length ds;
            rep_matched = !matched;
            rep_generation_mismatches = !mismatches;
            rep_diverged = List.rev !diverged })

let all_matched o = o.rep_matched = o.rep_total

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

let pp_divergence ppf dv =
  let d = dv.dv_dossier in
  Fmt.pf ppf "@[<v>dossier #%d (%s): %s@,wire: %s@,recorded: %s %s  fp %s@,\
              replayed: %a  fp %s"
    d.Recorder.do_id d.Recorder.do_kind
    "response fingerprint mismatch"
    (Lazy.force d.Recorder.do_wire)
    d.Recorder.do_outcome d.Recorder.do_detail
    (Lazy.force d.Recorder.do_response_fp)
    Request.pp_response dv.dv_response dv.dv_response_fp;
  if d.Recorder.do_spans <> [] then
    Fmt.pf ppf "@,recorded span tree:@,%a" Trace.pp_tree d.Recorder.do_spans;
  if dv.dv_spans <> [] then
    Fmt.pf ppf "@,replayed span tree:@,%a" Trace.pp_tree dv.dv_spans;
  Fmt.pf ppf "@]"

let pp_outcome ppf o =
  Fmt.pf ppf "@[<v>replayed %d dossier(s): %d matched, %d diverged"
    o.rep_total o.rep_matched
    (List.length o.rep_diverged);
  if o.rep_generation_mismatches > 0 then
    Fmt.pf ppf
      "@,warning: %d dossier(s) recorded under a different registry \
       generation"
      o.rep_generation_mismatches;
  List.iter (fun dv -> Fmt.pf ppf "@,%a" pp_divergence dv) o.rep_diverged;
  Fmt.pf ppf "@]"
