(* The flight recorder: a bounded ring of per-request dossiers, the
   always-on black box above the span/metric layer.

   A dossier is the context needed to explain — and deterministically
   re-execute — one request: the wire line, the registry generation and
   config fingerprint it ran under, the outcome, the root duration, the
   cache hit/miss chain, and a digest of the canonical response. The
   heavyweight parts (the full span tree, metric deltas) are retained
   only for interesting requests: errors (including over-budget and
   timeout) and the slowest-k seen so far, which are also kept whole
   outside the ring; everything else is stored stripped, so steady-state
   cost per request is O(1) ring writes plus an O(k) top-k probe with
   small constant k.

   The wire line and response digest are lazy: serializing a request
   and hashing a response are the two measurable per-request costs, and
   neither is needed until the dossier is exported or replayed — the
   ring is bounded, so the deferred work is too.

   The recorder is service-agnostic — dossier fields are strings and
   spans — so it lives here in gp_telemetry, with both directions of the
   dump format; gp_service fills dossiers in and owns the replay path
   (Flight). *)

type dossier = {
  do_id : int; (* the request id the server assigned *)
  do_kind : string; (* request kind, or "invalid" *)
  do_wire : string Lazy.t; (* re-servable wire line; forced at export *)
  do_generation : int; (* registry generation the request saw *)
  do_config : string; (* canonical server-config line *)
  do_config_fp : string; (* digest of do_config *)
  do_outcome : string; (* "ok" or the error-code name *)
  do_detail : string; (* error detail, "" on ok *)
  do_cached : bool;
  do_steps : int;
  do_dur_ns : float; (* root-span duration, else the observed latency *)
  do_response_fp : string Lazy.t; (* digest of the canonical response *)
  do_cache_chain : (string * int * int) list; (* cache, hits Δ, misses Δ *)
  do_spans : Trace.span list; (* full tree, interesting requests only *)
  do_metric_deltas : (string * float) list; (* family totals Δ, ditto *)
}

type t = {
  capacity : int;
  slowest_k : int;
  ring : dossier array;
  mutable recorded : int;
  mutable slow : dossier list; (* up-to-k slowest dossiers, ascending *)
}

let empty_dossier =
  { do_id = 0; do_kind = ""; do_wire = Lazy.from_val ""; do_generation = 0;
    do_config = ""; do_config_fp = ""; do_outcome = ""; do_detail = "";
    do_cached = false; do_steps = 0; do_dur_ns = 0.0;
    do_response_fp = Lazy.from_val ""; do_cache_chain = []; do_spans = [];
    do_metric_deltas = [] }

let create ?(capacity = 512) ?(slowest = 8) () =
  if capacity < 1 then invalid_arg "Recorder.create: capacity < 1";
  if slowest < 0 then invalid_arg "Recorder.create: slowest < 0";
  { capacity; slowest_k = slowest;
    ring = Array.make capacity empty_dossier; recorded = 0; slow = [] }

let capacity t = t.capacity
let recorded t = t.recorded
let retained t = Int.min t.recorded t.capacity
let dropped t = Int.max 0 (t.recorded - t.capacity)

(* Would this duration rank among the k slowest recorded so far? The
   ranking is [Float.compare]'s, so a [nan] ranks below every number and
   a tie with the fastest of a full list does not displace it. *)
let qualifies_slowest t dur =
  t.slowest_k > 0
  && (List.length t.slow < t.slowest_k
     ||
     match t.slow with
     | m :: _ -> Float.compare dur m.do_dur_ns > 0
     | [] -> true)

(* Insert a qualifying dossier into the ascending list, dropping the
   fastest when the list is full. The list lives outside the ring, so a
   slow dossier keeps its span tree after the ring evicts it. *)
let note_slow t d =
  let rec insert = function
    | m :: rest when Float.compare m.do_dur_ns d.do_dur_ns < 0 ->
      m :: insert rest
    | l -> d :: l
  in
  let l = insert t.slow in
  t.slow <- (if List.length l > t.slowest_k then List.tl l else l)

(* Will a dossier with this outcome and duration keep its heavyweight
   payload? Exposed so the filler can skip assembling spans and metric
   deltas for requests that would only be stored stripped. *)
let wants_payload t ~ok ~dur_ns =
  (not ok) || qualifies_slowest t dur_ns

let slowest t = t.slow

(* The slowest-k list changes only when the duration qualifies, and a
   dossier that carries no payload is stored as it is: the steady-state
   path allocates nothing here. *)
let record t d =
  let slow = qualifies_slowest t d.do_dur_ns in
  if slow then note_slow t d;
  let d =
    match (d.do_spans, d.do_metric_deltas) with
    | [], [] -> d
    | _ when slow || d.do_outcome <> "ok" -> d
    | _ -> { d with do_spans = []; do_metric_deltas = [] }
  in
  t.ring.(t.recorded mod t.capacity) <- d;
  t.recorded <- t.recorded + 1

(* Retained dossiers, oldest first. *)
let dossiers t =
  let n = retained t in
  List.init n (fun i -> t.ring.((t.recorded - n + i) mod t.capacity))

let clear t =
  t.recorded <- 0;
  t.slow <- []

(* ------------------------------------------------------------------ *)
(* JSONL export                                                        *)
(* ------------------------------------------------------------------ *)

let dossier_to_json d =
  let chain =
    String.concat ","
      (List.map
         (fun (name, h, m) ->
           Printf.sprintf "{\"cache\":%s,\"hits\":%d,\"misses\":%d}"
             (Json.str name) h m)
         d.do_cache_chain)
  in
  let deltas =
    String.concat ","
      (List.map
         (fun (name, v) ->
           Printf.sprintf "{\"name\":%s,\"delta\":%s}" (Json.str name)
             (Json.num v))
         d.do_metric_deltas)
  in
  let spans = String.concat "," (List.map Trace.span_to_json d.do_spans) in
  Printf.sprintf
    "{\"id\":%d,\"kind\":%s,\"wire\":%s,\"generation\":%d,\"config\":%s,\
     \"config_fp\":%s,\"outcome\":%s,\"detail\":%s,\"cached\":%b,\
     \"steps\":%d,\"dur_ns\":%s,\"response_fp\":%s,\"cache_chain\":[%s],\
     \"metric_deltas\":[%s],\"spans\":[%s]}"
    d.do_id (Json.str d.do_kind)
    (Json.str (Lazy.force d.do_wire))
    d.do_generation (Json.str d.do_config) (Json.str d.do_config_fp)
    (Json.str d.do_outcome) (Json.str d.do_detail) d.do_cached d.do_steps
    (Json.num d.do_dur_ns)
    (Json.str (Lazy.force d.do_response_fp))
    chain deltas spans

let to_jsonl t =
  let buf = Buffer.create 4096 in
  List.iter
    (fun d ->
      Buffer.add_string buf (dossier_to_json d);
      Buffer.add_char buf '\n')
    (dossiers t);
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* JSONL import                                                        *)
(* ------------------------------------------------------------------ *)

let entries name decode j =
  List.map
    (function
      | Json.Obj _ as e -> decode e
      | _ -> Json.fail "%s entry: expected an object" name)
    (Json.list_field name j)

let dossier_of_line line =
  match Json.parse line with
  | exception Json.Error m -> Json.fail "bad dossier line: %s" m
  | Json.Obj _ as j ->
    let do_id = Json.int_field "id" j in
    let do_kind = Json.str_field "kind" j in
    let do_wire = Json.str_field "wire" j in
    let do_generation = Json.int_field "generation" j in
    let do_config = Json.str_field "config" j in
    let do_config_fp = Json.str_field "config_fp" j in
    let do_outcome = Json.str_field "outcome" j in
    let do_detail = Json.str_field "detail" j in
    let do_cached = Json.bool_field "cached" j in
    let do_steps = Json.int_field "steps" j in
    let do_dur_ns = Json.num_field "dur_ns" j in
    let do_response_fp = Json.str_field "response_fp" j in
    let do_cache_chain =
      entries "cache_chain"
        (fun e ->
          let cache = Json.str_field "cache" e in
          let hits = Json.int_field "hits" e in
          (cache, hits, Json.int_field "misses" e))
        j
    in
    let do_metric_deltas =
      entries "metric_deltas"
        (fun e ->
          let name = Json.str_field "name" e in
          (name, Json.num_field "delta" e))
        j
    in
    let do_spans = entries "spans" Trace.span_of_json j in
    { do_id; do_kind; do_wire = Lazy.from_val do_wire; do_generation;
      do_config; do_config_fp; do_outcome; do_detail; do_cached; do_steps;
      do_dur_ns; do_response_fp = Lazy.from_val do_response_fp;
      do_cache_chain; do_spans; do_metric_deltas }
  | _ -> Json.fail "bad dossier line: expected a JSON object"

let of_jsonl contents =
  match
    List.map (fun l -> Json.on_line l dossier_of_line) (Json.lines contents)
  with
  | dossiers -> Ok dossiers
  | exception Json.Error e -> Error e

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error m -> Error m
  | contents -> of_jsonl contents

let pp_summary ppf t =
  let errors =
    List.length (List.filter (fun d -> d.do_outcome <> "ok") (dossiers t))
  in
  let with_spans =
    List.length (List.filter (fun d -> d.do_spans <> []) (dossiers t))
  in
  Fmt.pf ppf
    "flight recorder: %d recorded, %d retained (%d dropped), %d error \
     dossier(s), %d with span trees"
    (recorded t) (retained t) (dropped t) errors with_spans

(* Slowest first: the header, then [#id kind dur] and the span tree of
   each of the k slowest dossiers. *)
let pp_slowest ppf t =
  match t.slow with
  | [] -> Fmt.string ppf "slowest requests: empty (no traffic)"
  | slow ->
    Fmt.pf ppf "@[<v>slowest requests";
    List.iter
      (fun d ->
        Fmt.pf ppf "@,#%d %s  %a@,%a" d.do_id d.do_kind Trace.pp_dur
          d.do_dur_ns Trace.pp_tree d.do_spans)
      (List.rev slow);
    Fmt.pf ppf "@]"
