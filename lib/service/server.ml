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
  slow_log : int; (* slowest requests kept with their span trees *)
  flight_capacity : int; (* flight-recorder ring; 0 disables it *)
  flight_slowest : int; (* slowest-k dossiers kept with span trees *)
}

let default_config =
  { caching = true;
    cache_capacity = 256;
    max_steps = 100_000;
    timeout = None;
    now = Unix.gettimeofday;
    slow_log = 5;
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
         ("slow_log", Json.Int c.slow_log);
         ("flight_capacity", Json.Int c.flight_capacity);
         ("flight_slowest", Json.Int c.flight_slowest) ])

let config_fingerprint c = Digest.to_hex (Digest.string (config_to_line c))

(* The one range check: [create] refuses what it rejects, [config_of_json]
   applies it to recorded configs, and the CLI to its flags. *)
let validate_config c =
  let negative =
    List.find_opt
      (fun (_, v) -> v < 0)
      [ ("max_steps", c.max_steps); ("slow_log", c.slow_log);
        ("flight_capacity", c.flight_capacity);
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
      let slow_log = int "slow_log" d.slow_log in
      let flight_capacity = int "flight_capacity" d.flight_capacity in
      let flight_slowest = int "flight_slowest" d.flight_slowest in
      validate_config
        { d with caching; cache_capacity; max_steps; timeout; slow_log;
                 flight_capacity; flight_slowest }
    with
    | r -> Result.map_error (fun m -> "bad config: " ^ m) r
    | exception Json.Error m -> Error ("bad config: " ^ m))
  | _ -> Error "bad config: expected a JSON object"

let config_of_line line =
  match Json.parse line with
  | exception Json.Error m -> Error ("bad config line: " ^ m)
  | j -> config_of_json j

type slow_entry = {
  se_id : int;
  se_kind : string;
  se_ns : float;
  se_spans : Trace.span list;
}

type t = {
  config : config;
  dispatch : Dispatch.t;
  metrics : Metrics.t;
  recorder : Recorder.t option; (* flight recorder; None when disabled *)
  config_line : string; (* precomputed: every dossier carries both *)
  config_fp : string;
  out_buf : Buffer.t; (* reused response render buffer (serve_channel) *)
  cc_before : int array; (* reused cache-counter snapshots: hit/miss *)
  cc_after : int array; (* pairs per cache, Dispatch.cache_names order *)
  mutable next_id : int;
  mutable slow : slow_entry list; (* slowest first, <= config.slow_log *)
}

let create ?(config = default_config) ~declare_standard () =
  (match validate_config config with
  | Ok _ -> ()
  | Error m -> invalid_arg ("Server.create: " ^ m));
  { config;
    dispatch =
      Dispatch.create ~declare_standard
        ~cache_capacity:config.cache_capacity ();
    metrics = Metrics.create ();
    recorder =
      (if config.flight_capacity > 0 then
         Some
           (Recorder.create ~capacity:config.flight_capacity
              ~slowest:config.flight_slowest ())
       else None);
    config_line = config_to_line config;
    config_fp = config_fingerprint config;
    out_buf = Buffer.create 1024;
    cc_before = Array.make (2 * Array.length Dispatch.cache_names) 0;
    cc_after = Array.make (2 * Array.length Dispatch.cache_names) 0;
    next_id = 0;
    slow = [] }

let config t = t.config
let metrics t = t.metrics
let flight t = t.recorder
let registry t = Dispatch.registry t.dispatch
let caches t = Dispatch.caches t.dispatch
let cache_stats t = Dispatch.cache_stats (caches t)
let clear_caches t = Dispatch.clear_caches (caches t)

let fresh_id t =
  t.next_id <- t.next_id + 1;
  t.next_id

let observe t ~kind ~id ~t0 (result : (Request.payload, Request.error) result)
    ~cached ~steps =
  let ns = (t.config.now () -. t0) *. 1e9 in
  Metrics.observe t.metrics
    ~kind:(match kind with Some k -> Request.kind_name k | None -> "invalid")
    ~ok:(Result.is_ok result)
    ~error_code:
      (match result with
      | Ok _ -> None
      | Error e -> Some (Request.error_code_name e.Request.code))
    ~cached ~ns;
  { Request.rsp_id = id; rsp_kind = kind; rsp_result = result;
    rsp_cached = cached; rsp_steps = steps }

(* Handle one request to completion. Total: budget exhaustion and any
   unexpected exception become structured errors. *)
let handle_core ~id t req =
  let t0 = t.config.now () in
  let budget =
    Budget.create ~max_steps:t.config.max_steps
      ?deadline:(Option.map (fun s -> t0 +. s) t.config.timeout)
      ~now:t.config.now ()
  in
  let result, cached =
    match Dispatch.handle t.dispatch ~caching:t.config.caching ~budget req with
    | result -> result
    | exception Budget.Exhausted Budget.Steps ->
      ( Error
          { Request.code = Request.Over_budget;
            detail =
              Printf.sprintf "request exceeded its %d-step budget"
                t.config.max_steps },
        false )
    | exception Budget.Exhausted Budget.Deadline ->
      ( Error
          { Request.code = Request.Timeout;
            detail =
              Printf.sprintf "request exceeded its %.3fs deadline"
                (Option.value ~default:0.0 t.config.timeout) },
        false )
    | exception exn ->
      ( Error
          { Request.code = Request.Internal;
            detail = Printexc.to_string exn },
        false )
  in
  observe t ~kind:(Some (Request.kind req)) ~id ~t0 result ~cached
    ~steps:(Budget.used budget)

(* Keep the [config.slow_log] slowest requests with the span trees their
   root span covered. The duration ranking a request by is its root
   span's, so the log is self-consistent with the trace export. *)
let record_slow t ~id ~kind spans =
  match List.rev spans with
  | [] -> () (* ring dropped everything: nothing worth keeping *)
  | root :: _ ->
    let entry =
      { se_id = id; se_kind = kind; se_ns = root.Trace.sp_dur_ns;
        se_spans = spans }
    in
    let merged =
      List.merge
        (fun a b -> Float.compare b.se_ns a.se_ns)
        [ entry ] t.slow
    in
    t.slow <- List.filteri (fun i _ -> i < t.config.slow_log) merged

(* ------------------------------------------------------------------ *)
(* Flight-recorder dossier assembly                                    *)
(* ------------------------------------------------------------------ *)

module Tmetrics = Gp_telemetry.Metrics

(* Sink metric family totals, or [] when telemetry is off — the dossier
   then simply records no metric deltas. *)
let metric_totals () =
  match Tel.current () with
  | Some s -> Tmetrics.totals s.Tel.metrics
  | None -> []

(* New families only ever appear in [after]; totals are monotone, so a
   missing [before] entry reads as 0. Zero deltas are dropped. *)
let metric_delta before after =
  List.filter_map
    (fun (name, v) ->
      let prev = Option.value ~default:0.0 (List.assoc_opt name before) in
      let d = v -. prev in
      if d <> 0.0 then Some (name, d) else None)
    after

(* The per-request cache chain diffs hit/miss counters around the
   request. The snapshots go through [Dispatch.cache_counters_into] into
   the server's two reused int arrays — no stats records per request;
   the chain list itself only materializes the (few) caches the request
   touched. Per-request sandbox caches (Check-with-defs) never appear
   here — by design, they are private to one request. *)
let cache_chain t =
  Dispatch.cache_counters_into (Dispatch.caches t.dispatch) t.cc_after;
  let rec go i acc =
    if i < 0 then acc
    else
      let dh = t.cc_after.(2 * i) - t.cc_before.(2 * i) in
      let dm = t.cc_after.((2 * i) + 1) - t.cc_before.((2 * i) + 1) in
      go (i - 1)
        (if dh <> 0 || dm <> 0 then (Dispatch.cache_names.(i), dh, dm) :: acc
         else acc)
  in
  go (Array.length Dispatch.cache_names - 1) []

let record_dossier t ~id ~kind ~wire ~spans ~dur_ns ~cache_chain
    ~metric_deltas (rsp : Request.response) =
  match t.recorder with
  | None -> ()
  | Some recorder ->
    let outcome, detail =
      match rsp.Request.rsp_result with
      | Ok _ -> ("ok", "")
      | Error e -> (Request.error_code_name e.Request.code, e.Request.detail)
    in
    Recorder.record recorder
      { Recorder.do_id = id;
        do_kind = kind;
        do_wire = wire;
        do_generation = Gp_concepts.Registry.generation (registry t);
        do_config = t.config_line;
        do_config_fp = t.config_fp;
        do_outcome = outcome;
        do_detail = detail;
        do_cached = rsp.Request.rsp_cached;
        do_steps = rsp.Request.rsp_steps;
        do_dur_ns = dur_ns;
        do_response_fp = lazy (Request.response_fingerprint rsp);
        do_cache_chain = cache_chain;
        do_spans = spans;
        do_metric_deltas = metric_deltas }

(* [wire], when given, is the raw line the request arrived on — reused
   verbatim in the dossier instead of re-serializing the request.
   [context], when given, is the inbound cluster trace context: the root
   span names the distributed trace and parent span it belongs to, so a
   node-local service trace can be joined to the cluster-wide tree. *)
let handle_recorded ?id ?context ?wire t req =
  let id = match id with Some id -> id | None -> fresh_id t in
  let kind = Request.kind_name (Request.kind req) in
  let recording = Option.is_some t.recorder in
  let wall0 = if recording then t.config.now () else 0.0 in
  if recording then
    Dispatch.cache_counters_into (Dispatch.caches t.dispatch) t.cc_before;
  let metrics_before = if recording then metric_totals () else [] in
  let rsp, spans =
    if not (Tel.is_enabled ()) then (handle_core ~id t req, [])
    else begin
      let m = Tel.mark () in
      let rsp =
        Tel.with_span ~name:"service.request"
          ~attrs:(fun () ->
            let base = [ ("kind", kind); ("id", string_of_int id) ] in
            match context with
            | Some c when not (Gp_telemetry.Context.is_none c) ->
              ("trace", string_of_int (Gp_telemetry.Context.trace c))
              :: ("parent_span",
                  string_of_int (Gp_telemetry.Context.span c))
              :: base
            | _ -> base)
          (fun () -> handle_core ~id t req)
      in
      let spans = Tel.spans_since m in
      record_slow t ~id ~kind spans;
      (rsp, spans)
    end
  in
  (match t.recorder with
  | None -> ()
  | Some recorder ->
    (* rank by the root span's duration when telemetry is on — the same
       number the slow log and trace export show — else wall clock *)
    let dur_ns =
      match List.rev spans with
      | root :: _ -> root.Trace.sp_dur_ns
      | [] -> (t.config.now () -. wall0) *. 1e9
    in
    (* the after-snapshot and delta matter only when the recorder will
       keep the payload (non-ok outcome or slowest-k) — skip both on
       the steady-state path *)
    let metric_deltas =
      if
        Recorder.wants_payload recorder
          ~ok:(Result.is_ok rsp.Request.rsp_result)
          ~dur_ns
      then metric_delta metrics_before (metric_totals ())
      else []
    in
    let wire =
      match wire with
      | Some line -> Lazy.from_val line
      | None -> lazy (Wire.request_to_line ~id req)
    in
    record_dossier t ~id ~kind ~wire ~spans ~dur_ns
      ~cache_chain:(cache_chain t) ~metric_deltas rsp);
  rsp

let handle ?id ?context t req = handle_recorded ?id ?context t req

(* A request line that did not even parse still gets a full response (and
   a metrics entry under kind "invalid", and a dossier carrying the raw
   line — the only re-servable rendering a non-request has). *)
let reject_invalid ?(line = "") t detail =
  let id = fresh_id t in
  let t0 = t.config.now () in
  let rsp =
    observe t ~kind:None ~id ~t0
      (Error { Request.code = Request.Bad_request; detail })
      ~cached:false ~steps:0
  in
  record_dossier t ~id ~kind:"invalid" ~wire:(Lazy.from_val line) ~spans:[]
    ~dur_ns:((t.config.now () -. t0) *. 1e9)
    ~cache_chain:[] ~metric_deltas:[] rsp;
  rsp

(* Serve each request to completion, in order: responses come back in
   request order with consecutive ids. This is the workload driver's
   path. *)
let process t reqs = List.map (fun req -> handle t req) reqs

(* ------------------------------------------------------------------ *)
(* Line-oriented serving                                               *)
(* ------------------------------------------------------------------ *)

(* same whitespace set [String.trim] strips, without copying the line *)
let is_blank line =
  let n = String.length line in
  let rec go i =
    i >= n
    ||
    match String.unsafe_get line i with
    | ' ' | '\t' | '\n' | '\r' | '\012' -> go (i + 1)
    | _ -> false
  in
  go 0

let serve_line t line =
  if is_blank line then None
  else
    let decoded =
      (* a dedicated span so [Trace.folded --gc] attributes wire-parse
         allocation separately from dispatch *)
      if Tel.is_enabled () then
        Tel.with_span ~name:"wire.parse" (fun () -> Wire.request_of_line line)
      else Wire.request_of_line line
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

let slow_requests t = t.slow

let pp_slow ppf entries =
  if entries = [] then
    Fmt.string ppf "slow-request log: empty (telemetry disabled or no traffic)"
  else begin
    Fmt.pf ppf "@[<v>slowest requests";
    List.iter
      (fun e ->
        Fmt.pf ppf "@,#%d %s  %a@,%a" e.se_id e.se_kind Trace.pp_dur e.se_ns
          Trace.pp_tree e.se_spans)
      entries;
    Fmt.pf ppf "@]"
  end
