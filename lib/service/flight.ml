(* The one replay engine: [re_serve] re-serves recorded requests on a
   fresh server and compares response fingerprints. The fingerprint
   covers kind + full payload/error and excludes ids, cache provenance
   and step accounting — so a replay from cold caches must match a
   recording made with warm ones, which is exactly the
   cache-transparency property the service guarantees. [replay] runs it
   over a flight-recorder dump; the cluster's audits run it over a
   run's records. Divergences are collected, not raised: the caller
   (gp replay, gp cluster audit, bench s4) decides whether to print
   span-tree diffs or fail hard. *)

module Recorder = Gp_telemetry.Recorder
module Trace = Gp_telemetry.Trace
module Tel = Gp_telemetry.Tel

let ( let* ) = Result.bind

(* ------------------------------------------------------------------ *)
(* The re-serve loop                                                   *)
(* ------------------------------------------------------------------ *)

type input = Wire of string | Decoded of int * Request.t

type 'a divergence = {
  dv_item : 'a;
  dv_recorded_fp : string;
  dv_response : Request.response;
  dv_response_fp : string;
  dv_spans : Trace.span list;
}

let blank_line_response =
  { Request.rsp_id = 0; rsp_kind = None;
    rsp_result =
      Error { Request.code = Request.Bad_request; detail = "blank wire line" };
    rsp_cached = false; rsp_steps = 0; rsp_entry = Request.no_entry }

(* One fresh server, its own flight ring off — the loop reads a
   recording, it does not make one. Spans are captured only when the
   caller installed a sink, and kept only for divergent items. *)
let re_serve config items =
  let server = Server.create ~config:{ config with flight_capacity = 0 } () in
  let matched = ref 0 in
  let diverged = ref [] in
  List.iter
    (fun (item, input, recorded_fp) ->
      let m = Tel.mark () in
      let rsp =
        match input with
        | Decoded (id, req) -> Server.handle ~id server req
        | Wire line -> (
          match Server.serve_line server line with
          | Some rsp -> rsp
          | None -> blank_line_response)
      in
      let fp = Request.response_fingerprint rsp in
      if String.equal fp recorded_fp then incr matched
      else
        diverged :=
          { dv_item = item; dv_recorded_fp = recorded_fp; dv_response = rsp;
            dv_response_fp = fp; dv_spans = Tel.spans_since m }
          :: !diverged)
    items;
  (!matched, List.rev !diverged)

(* ------------------------------------------------------------------ *)
(* Flight-dump replay                                                  *)
(* ------------------------------------------------------------------ *)

type outcome = {
  rep_config : Server.config;
  rep_total : int;
  rep_matched : int;
  rep_generation_mismatches : int;
  rep_diverged : Recorder.dossier divergence list;
}

let replay ?config ds =
  match ds with
  | [] -> Error "empty flight dump: nothing to replay"
  | first :: _ ->
    let* config =
      match config with
      | Some c -> Ok c
      | None -> Server.config_of_line first.Recorder.do_config
    in
    let generation =
      Gp_concepts.Registry.generation (Gp_standard.Standard.world ())
    in
    let items =
      List.map
        (fun d -> (d, Wire d.Recorder.do_wire, d.Recorder.do_response_fp))
        ds
    in
    let matched, diverged =
      Tel.with_installed ~trace_capacity:65536 (fun _sink ->
          re_serve config items)
    in
    Ok
      { rep_config = config;
        rep_total = List.length ds;
        rep_matched = matched;
        rep_generation_mismatches =
          List.length
            (List.filter
               (fun d -> d.Recorder.do_generation <> generation)
               ds);
        rep_diverged = diverged }

let all_matched o = o.rep_matched = o.rep_total

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

let pp_divergence ppf dv =
  let d = dv.dv_item in
  Fmt.pf ppf "@[<v>dossier #%d (%s): %s@,wire: %s@,recorded: %s %s  fp %s@,\
              replayed: %a  fp %s"
    d.Recorder.do_id d.Recorder.do_kind
    "response fingerprint mismatch"
    d.Recorder.do_wire
    d.Recorder.do_outcome d.Recorder.do_detail dv.dv_recorded_fp
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
