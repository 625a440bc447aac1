(* The serving engine: per-request budgets, dispatch, metrics.

   Single-threaded and deterministic: each request is served to completion
   before the next one starts (overload control lives in the cluster
   router). The clock is injectable, so the timeout path and every latency
   number are reproducible under test. No request — however malformed —
   escapes as an exception: the last-resort handler maps anything
   unexpected to an Internal error response and the server keeps
   serving. *)

module Tel = Gp_telemetry.Tel
module Trace = Gp_telemetry.Trace
module Recorder = Gp_telemetry.Recorder
module Json = Gp_telemetry.Json

type config = {
  caching : bool;
  cache_capacity : int; (* entries per LRU *)
  max_steps : int; (* per-request step budget *)
  timeout : float option; (* per-request deadline, seconds *)
  now : unit -> float; (* injectable clock, seconds *)
  flight_capacity : int; (* flight-recorder ring; 0 disables it *)
  flight_slowest : int; (* slowest-k dossiers kept with span trees *)
}

let default_config =
  { caching = true;
    cache_capacity = 256;
    max_steps = 100_000;
    timeout = None;
    now = Unix.gettimeofday;
    flight_capacity = 512;
    flight_slowest = 8 }

(* The canonical config line: every field that shapes observable
   behaviour, in a fixed order ([now] is process wiring, not behaviour).
   The fingerprint digests this line; a dossier carries both, so replay
   can rebuild the server the dossier's request actually ran under. *)
let config_to_line c =
  Json.to_string
    (Json.Obj
       [ ("caching", Json.Bool c.caching);
         ("cache_capacity", Json.Int c.cache_capacity);
         ("max_steps", Json.Int c.max_steps);
         ( "timeout",
           match c.timeout with
           | None -> Json.Null
           | Some s -> Json.Float s );
         ("flight_capacity", Json.Int c.flight_capacity);
         ("flight_slowest", Json.Int c.flight_slowest) ])

let config_fingerprint c = Digest.to_hex (Digest.string (config_to_line c))

(* The one range check: [create] refuses what it rejects, [config_of_json]
   applies it to recorded configs, and the CLI to its flags. *)
let validate_config c =
  let negative =
    List.find_opt
      (fun (_, v) -> v < 0)
      [ ("max_steps", c.max_steps); ("flight_capacity", c.flight_capacity);
        ("flight_slowest", c.flight_slowest) ]
  in
  if c.cache_capacity < 1 then
    Error (Printf.sprintf "cache_capacity must be >= 1, got %d" c.cache_capacity)
  else
    match (negative, c.timeout) with
    | Some (name, v), _ -> Error (Printf.sprintf "%s must be >= 0, got %d" name v)
    | None, Some s when not (Float.is_finite s && s >= 0.0) ->
      Error (Printf.sprintf "timeout must be a finite number >= 0, got %g" s)
    | None, _ -> Ok c

let config_of_json j =
  let d = default_config in
  let int name default =
    Option.value ~default (Json.opt_field Json.int_field name j)
  in
  match j with
  | Json.Obj _ -> (
    match
      let caching =
        Option.value ~default:d.caching
          (Json.opt_field Json.bool_field "caching" j)
      in
      let cache_capacity = int "cache_capacity" d.cache_capacity in
      let max_steps = int "max_steps" d.max_steps in
      let timeout =
        match Json.field "timeout" j with
        | None | Some Json.Null -> None
        | Some _ -> Some (Json.num_field "timeout" j)
      in
      let flight_capacity = int "flight_capacity" d.flight_capacity in
      let flight_slowest = int "flight_slowest" d.flight_slowest in
      validate_config
        { d with caching; cache_capacity; max_steps; timeout; flight_capacity;
                 flight_slowest }
    with
    | r -> Result.map_error (fun m -> "bad config: " ^ m) r
    | exception Json.Error m -> Error ("bad config: " ^ m))
  | _ -> Error "bad config: expected a JSON object"

let config_of_line line =
  match Json.parse line with
  | exception Json.Error m -> Error ("bad config line: " ^ m)
  | j -> config_of_json j

type flight = (Request.t, (Request.payload, Request.error) result) Recorder.t

type t = {
  config : config;
  dispatch : Dispatch.t;
  metrics : Metrics.t;
  recorder : flight option; (* flight recorder; None when disabled *)
  config_line : string; (* precomputed: every dossier carries both *)
  config_fp : string;
  out_buf : Buffer.t; (* reused response render buffer (serve_channel) *)
  cc_before : int array; (* cache counters after the last request, *)
  cc_after : int array; (* and the last request's deltas, the dossier
                           chain: hit/miss pairs per cache, in
                           Dispatch.cache_names order *)
  latency_ns : float array;
      (* one slot: the latency [observe] last measured, which an untraced
         dossier reuses as its duration (a float array stores unboxed) *)
  mutable lines : Line_memo.t option;
      (* the decoded-line table, made by the first [serve_line]: a
         server that is only handed requests never pays for it *)
  mutable next_id : int;
}

(* The recorder's slot fills: constant literals, so they are static data
   and the 512-slot arrays force no collection (see Recorder). *)
let no_request = Request.Parse { source = "" }

let no_result : (Request.payload, Request.error) result =
  Error { Request.code = Request.Internal; detail = "" }

let create ?(config = default_config) () =
  (match validate_config config with
  | Ok _ -> ()
  | Error m -> invalid_arg ("Server.create: " ^ m));
  { config;
    dispatch =
      Dispatch.create ~cache_capacity:config.cache_capacity ();
    metrics = Metrics.create ();
    recorder =
      (if config.flight_capacity > 0 then
         Some
           (Recorder.create ~capacity:config.flight_capacity
              ~slowest:config.flight_slowest ~caches:Dispatch.cache_names
              ~request:no_request
              ~wire:(fun ~id req -> Wire.request_to_line ~id req)
              ~response:no_result ~fingerprint:Request.result_fingerprint ())
       else None);
    config_line = config_to_line config;
    config_fp = config_fingerprint config;
    out_buf = Buffer.create 1024;
    cc_before = Array.make (2 * Array.length Dispatch.cache_names) 0;
    cc_after = Array.make (2 * Array.length Dispatch.cache_names) 0;
    latency_ns = [| 0.0 |];
    lines = None;
    next_id = 0 }

let config t = t.config
let metrics t = t.metrics
let flight t = t.recorder
let caches t = Dispatch.caches t.dispatch
let cache_stats t = Dispatch.cache_stats (caches t)
let clear_caches t = Dispatch.clear_caches (caches t)

let fresh_id t =
  t.next_id <- t.next_id + 1;
  t.next_id

(* The request's one end reading of the clock: the latency goes to the
   histogram and into [t.latency_ns] for the dossier. *)
let observe t ~kind ~id ~t0 (result : (Request.payload, Request.error) result)
    ~cached ~entry ~steps =
  let ns = (t.config.now () -. t0) *. 1e9 in
  t.latency_ns.(0) <- ns;
  Metrics.observe t.metrics ~kind ~result ~cached ~ns;
  { Request.rsp_id = id; rsp_kind = kind; rsp_result = result;
    rsp_cached = cached; rsp_steps = steps; rsp_entry = entry }

let failed t ~kind ~id ~t0 ~budget code detail =
  observe t ~kind ~id ~t0
    (Error { Request.code; detail })
    ~cached:false ~entry:Request.no_entry ~steps:(Budget.used budget)

(* Handle one request to completion. Total: budget exhaustion and any
   unexpected exception become structured errors. [t0] is the request's
   one start reading of the clock. How a returned answer was served —
   from the caches, and from which entry — is read off the dispatcher. *)
let handle_core ~id ~t0 t req =
  let budget =
    Budget.create ~max_steps:t.config.max_steps
      ?deadline:(Option.map (fun s -> t0 +. s) t.config.timeout)
      ~now:t.config.now ()
  in
  let kind = Some (Request.kind req) in
  match Dispatch.handle t.dispatch ~caching:t.config.caching ~budget req with
  | result ->
    observe t ~kind ~id ~t0 result ~cached:(Dispatch.cached t.dispatch)
      ~entry:(Dispatch.entry t.dispatch) ~steps:(Budget.used budget)
  | exception Budget.Exhausted Budget.Steps ->
    failed t ~kind ~id ~t0 ~budget Request.Over_budget
      (Printf.sprintf "request exceeded its %d-step budget" t.config.max_steps)
  | exception Budget.Exhausted Budget.Deadline ->
    failed t ~kind ~id ~t0 ~budget Request.Timeout
      (Printf.sprintf "request exceeded its %.3fs deadline"
         (Option.value ~default:0.0 t.config.timeout))
  | exception exn ->
    failed t ~kind ~id ~t0 ~budget Request.Internal (Printexc.to_string exn)

(* ------------------------------------------------------------------ *)
(* Flight-recorder dossier assembly                                    *)
(* ------------------------------------------------------------------ *)

(* The per-request cache chain: each cache's hit/miss counters less
   their values at the end of the previous request, written into the
   server's reused delta array, which the recorder copies into its
   slot — no stats records and no chain list per request. Only a request
   moves the counters (the caches are reached through [Dispatch.handle]
   alone, and a server with a recorder records every request), so one
   request's after-snapshot is the next one's before-snapshot: one pass
   over the caches per request. Per-request sandbox caches
   (Check-with-defs) never appear here — by design, they are private to
   one request. *)
let cache_deltas t =
  let counts = Dispatch.cache_counters (Dispatch.caches t.dispatch) in
  for i = 0 to Array.length t.cc_after - 1 do
    let total = counts.(i) in
    t.cc_after.(i) <- total - t.cc_before.(i);
    t.cc_before.(i) <- total
  done;
  t.cc_after

let record_dossier recorder t ~id ~kind ~wire ~spans ~dur_ns ~chain
    (rsp : Request.response) =
  let result = rsp.Request.rsp_result in
  Recorder.record recorder ~id ~kind ~wire
    ~generation:(Gp_concepts.Registry.generation (Gp_standard.Standard.world ()))
    ~config:t.config_line ~config_fp:t.config_fp
    ~outcome:
      (match result with
      | Ok _ -> "ok"
      | Error e -> Request.error_code_name e.Request.code)
    ~detail:(match result with Ok _ -> "" | Error e -> e.Request.detail)
    ~cached:rsp.Request.rsp_cached ~steps:rsp.Request.rsp_steps ~dur_ns
    ~response:result ~chain ~spans

(* [wire], when given, is the raw line the request arrived on — reused
   verbatim in the dossier instead of re-serializing the request. *)
let handle_recorded ?id ?wire t req =
  let id = match id with Some id -> id | None -> fresh_id t in
  let kind = Request.kind_name (Request.kind req) in
  let t0 = t.config.now () in
  let rsp, spans =
    if not (Tel.is_enabled ()) then (handle_core ~id ~t0 t req, [])
    else begin
      let m = Tel.mark () in
      let rsp =
        Tel.with_span ~name:"service.request"
          ~attrs:(fun () -> [ ("kind", kind); ("id", string_of_int id) ])
          (fun () -> handle_core ~id ~t0 t req)
      in
      (rsp, Tel.spans_since m)
    end
  in
  (match t.recorder with
  | None -> ()
  | Some recorder ->
    (* rank by the root span's duration when telemetry is on — the same
       number the trace export shows — else by the observed latency *)
    let dur_ns =
      match List.rev spans with
      | root :: _ -> root.Trace.sp_dur_ns
      | [] -> t.latency_ns.(0)
    in
    let wire =
      match wire with
      | Some line -> Recorder.Line line
      | None -> Recorder.Request req
    in
    record_dossier recorder t ~id ~kind ~wire ~spans ~dur_ns
      ~chain:(cache_deltas t) rsp);
  rsp

let handle ?id t req = handle_recorded ?id t req

(* A request line that did not even parse still gets a full response (and
   a metrics entry under kind "invalid", and a dossier carrying the raw
   line — the only re-servable rendering a non-request has). *)
let reject_invalid ?(line = "") t detail =
  let id = fresh_id t in
  let t0 = t.config.now () in
  let rsp =
    observe t ~kind:None ~id ~t0
      (Error { Request.code = Request.Bad_request; detail })
      ~cached:false ~entry:Request.no_entry ~steps:0
  in
  (match t.recorder with
  | None -> ()
  | Some recorder ->
    Array.fill t.cc_after 0 (Array.length t.cc_after) 0;
    record_dossier recorder t ~id ~kind:"invalid" ~wire:(Recorder.Line line)
      ~spans:[] ~dur_ns:t.latency_ns.(0) ~chain:t.cc_after rsp);
  rsp

(* Serve each request to completion, in order: responses come back in
   request order with consecutive ids. This is the workload driver's
   path. *)
let process t reqs = List.map (fun req -> handle t req) reqs

(* ------------------------------------------------------------------ *)
(* Line-oriented serving                                               *)
(* ------------------------------------------------------------------ *)

let line_memo t =
  match t.lines with
  | Some memo -> memo
  | None ->
    let memo = Line_memo.create () in
    t.lines <- Some memo;
    memo

let serve_line t line =
  if Wire.is_blank line then None
  else
    let memo = line_memo t in
    let decoded =
      (* a dedicated span so [Trace.folded --gc] attributes wire-parse
         allocation separately from dispatch *)
      if Tel.is_enabled () then
        Tel.with_span ~name:"wire.parse" (fun () -> Line_memo.decode memo line)
      else Line_memo.decode memo line
    in
    match decoded with
    | Ok (id, req) ->
      let id = match id with Some id -> id | None -> fresh_id t in
      Some (handle_recorded ~id ~wire:line t req)
    | Error detail -> Some (reject_invalid ~line t detail)

let serve_channel t ic oc =
  let served = ref 0 in
  (try
     while true do
       let line = input_line ic in
       match serve_line t line with
       | None -> ()
       | Some rsp ->
         incr served;
         let buf = t.out_buf in
         Buffer.clear buf;
         if Tel.is_enabled () then
           Tel.with_span ~name:"wire.render" (fun () ->
               Wire.response_into buf rsp)
         else Wire.response_into buf rsp;
         Buffer.add_char buf '\n';
         Buffer.output_buffer oc buf
     done
   with End_of_file -> ());
  flush oc;
  !served

let report t = Metrics.report ~cache_stats:(cache_stats t) t.metrics

(* GC counter totals for the machine report ([gp serve --stats-json]):
   process-lifetime allocation alongside the request/cache numbers, so a
   stats scrape shows bytes-per-request trends without a profiler. *)
let gc_json () =
  let q = Gc.quick_stat () in
  Printf.sprintf
    "{\"allocated_bytes\":%.0f,\"minor_words\":%.0f,\"promoted_words\":%.0f,\"major_words\":%.0f,\"minor_collections\":%d,\"major_collections\":%d,\"heap_words\":%d}"
    (Gc.allocated_bytes ()) q.Gc.minor_words q.Gc.promoted_words
    q.Gc.major_words q.Gc.minor_collections q.Gc.major_collections
    q.Gc.heap_words

let report_json t =
  Metrics.report_json ~cache_stats:(cache_stats t) ~gc:(gc_json ()) t.metrics
