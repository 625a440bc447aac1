(* The flight recorder: a bounded ring of per-request dossiers, the
   always-on black box above the span layer.

   A dossier is the context needed to explain — and deterministically
   re-execute — one request: the wire line, the registry generation and
   config fingerprint it ran under, the outcome, the root duration, the
   cache hit/miss chain, and a digest of the canonical response. The
   heavyweight part, the full span tree (whose attributes carry the
   libraries' work counts), is retained only for interesting requests:
   errors (including over-budget and timeout) and the slowest-k seen so
   far, which are also kept whole outside the ring; everything else is
   stored stripped, so steady-state cost per request is O(1) slot writes
   plus an O(k) top-k probe with small constant k.

   The ring is a slot store, not an array of dossier records: each field
   lives at the slot's index of its own preallocated array — ints and
   floats unboxed, strings that are static or already old, the wire line
   copied into a byte ring the slots share, the cache chain as int
   deltas. Recording a request therefore allocates nothing the ring
   keeps, so a minor collection has next to nothing of the ring to
   promote. Dossier records are built only on read. Every slot array is
   created with an immediate or static fill: [Array.make] over 256 words
   with a young fill forces a minor collection, before the server has
   answered anything.

   The service values the recorder cannot interpret stay as the service
   made them: a request recorded without its wire line, serialized at
   read, and the response, digested at read — the two measurable
   per-request costs, deferred to export or replay.

   The recorder is service-agnostic — it is parameterised over the
   request and response types, and stores strings, ints and spans — so
   it lives here in gp_telemetry, with both directions of the dump
   format; gp_service fills slots in and owns the replay path
   (Flight). *)

type dossier = {
  do_id : int; (* the request id the server assigned *)
  do_kind : string; (* request kind, or "invalid" *)
  do_wire : string; (* re-servable wire line *)
  do_generation : int; (* registry generation the request saw *)
  do_config : string; (* canonical server-config line *)
  do_config_fp : string; (* digest of do_config *)
  do_outcome : string; (* "ok" or the error-code name *)
  do_detail : string; (* error detail, "" on ok *)
  do_cached : bool;
  do_steps : int;
  do_dur_ns : float; (* root-span duration, else the observed latency *)
  do_response_fp : string; (* digest of the canonical response *)
  do_cache_chain : (string * int * int) list; (* cache, hits Δ, misses Δ *)
  do_spans : Trace.span list; (* full tree, interesting requests only *)
}

type 'q wire = Line of string | Request of 'q

type ('q, 'r) t = {
  capacity : int;
  slowest_k : int;
  caches : string array; (* chain order; a slot keeps 2 ints per cache *)
  no_request : 'q; (* the static fill of [requests] *)
  wire_of : id:int -> 'q -> string;
  fingerprint : kind:string -> 'r -> string;
  (* the slots: index [i] of every array below is one dossier *)
  ids : int array;
  kinds : string array;
  mutable arena : Bytes.t; (* the retained lines, a byte ring *)
  mutable head : int; (* absolute arena position past the newest line *)
  line_pos : int array; (* absolute arena position of the slot's line *)
  line_lens : int array; (* -1: no line, serialize [requests.(i)] *)
  requests : 'q array;
  generations : int array;
  configs : string array;
  config_fps : string array;
  outcomes : string array;
  details : string array;
  cached : bool array;
  steps : int array;
  durs : float array;
  responses : 'r array;
  chains : int array; (* (hits Δ, misses Δ) per cache, per slot *)
  spans : Trace.span list array;
  mutable recorded : int;
  mutable slow : (float * dossier Lazy.t) list;
      (* up-to-k slowest (duration, dossier), ascending *)
}

(* The arena before the first line: a string literal is static, where
   [Bytes.empty] is a young value at start-up. A zero-length arena is
   never written, only replaced. *)
let no_arena = Bytes.unsafe_of_string ""

let create ?(capacity = 512) ?(slowest = 8) ~caches ~request ~wire
    ~response ~fingerprint () =
  if capacity < 1 then invalid_arg "Recorder.create: capacity < 1";
  if slowest < 0 then invalid_arg "Recorder.create: slowest < 0";
  let ints () = Array.make capacity 0 and strs () = Array.make capacity "" in
  { capacity; slowest_k = slowest; caches; no_request = request;
    wire_of = wire; fingerprint;
    ids = ints (); kinds = strs (); arena = no_arena; head = 0;
    line_pos = ints (); line_lens = ints (); requests = Array.make capacity request;
    generations = ints (); configs = strs (); config_fps = strs ();
    outcomes = strs (); details = strs ();
    cached = Array.make capacity false; steps = ints ();
    durs = Array.make capacity 0.0; responses = Array.make capacity response;
    chains = Array.make (capacity * 2 * Array.length caches) 0;
    spans = Array.make capacity [];
    recorded = 0; slow = [] }

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
     | (m, _) :: _ -> Float.compare dur m > 0
     | [] -> true)

(* Insert a qualifying dossier into the ascending list, dropping the
   fastest when the list is full. The list lives outside the ring, so a
   slow dossier keeps its span tree after the ring evicts it. *)
let note_slow t dur d =
  let rec insert = function
    | (m, _) as e :: rest when Float.compare m dur < 0 -> e :: insert rest
    | l -> (dur, d) :: l
  in
  let l = insert t.slow in
  t.slow <- (if List.length l > t.slowest_k then List.tl l else l)

(* The chain stored at [chain.(base ..)], as the caches it touched. *)
let chain_list t chain base =
  let rec go c acc =
    if c < 0 then acc
    else
      let h = chain.(base + (2 * c)) and m = chain.(base + (2 * c) + 1) in
      go (c - 1) (if h <> 0 || m <> 0 then (t.caches.(c), h, m) :: acc else acc)
  in
  go (Array.length t.caches - 1) []

(* The wire lines live in one byte ring shared by the slots, not one
   buffer per slot: a slot's buffer would regrow whenever the slot met a
   line longer than any it had held, so per-request allocation would
   depend on where the ring stood. Positions are absolute and only grow;
   byte [p] sits at [p mod size]. The arena holds at least the retained
   lines, and doubles (copying them) when the next line would overwrite
   one of them — a few times in a run, starting at 64 bytes per slot, so
   each new arena of a full-size ring is allocated straight into the
   major heap. *)
let arena_read a pos len =
  let size = Bytes.length a in
  let p = pos mod size in
  let first = Int.min len (size - p) in
  let out = Bytes.create len in
  Bytes.blit a p out 0 first;
  Bytes.blit a 0 out first (len - first);
  Bytes.unsafe_to_string out

let arena_write a pos s =
  let size = Bytes.length a and len = String.length s in
  let p = pos mod size in
  let first = Int.min len (size - p) in
  Bytes.blit_string s 0 a p first;
  Bytes.blit_string s first a 0 (len - first)

(* Append slot [i]'s line. The lines that must survive are those of the
   slots still retained once [i] is overwritten: from the oldest of
   them up to [head]. *)
let store_line t i line =
  let len = String.length line in
  let kept = Int.min t.recorded (t.capacity - 1) in
  let oldest =
    if kept = 0 then t.head else t.line_pos.((i + t.capacity - kept) mod t.capacity)
  in
  let size = Bytes.length t.arena in
  if t.head + len - oldest > size then begin
    let rec grow n = if n >= t.head + len - oldest then n else grow (2 * n) in
    let arena = Bytes.create (grow (Int.max size (64 * t.capacity))) in
    if t.head > oldest then
      arena_write arena oldest (arena_read t.arena oldest (t.head - oldest));
    t.arena <- arena
  end;
  if len > 0 then arena_write t.arena t.head line;
  t.line_pos.(i) <- t.head;
  t.line_lens.(i) <- len;
  t.head <- t.head + len

let record t ~id ~kind ~wire ~generation ~config ~config_fp ~outcome ~detail
    ~cached ~steps ~dur_ns ~response ~chain ~spans =
  let width = 2 * Array.length t.caches in
  if Array.length chain <> width then
    invalid_arg "Recorder.record: chain length is not 2 per cache";
  let slow = qualifies_slowest t dur_ns in
  let keep = slow || outcome <> "ok" in
  let spans = if keep then spans else [] in
  (* the slowest-k changes only when the duration qualifies; its entry
     holds the recorded values themselves, so it outlives the slot *)
  if slow then begin
    let cache_chain = chain_list t chain 0 in
    note_slow t dur_ns
      (lazy
        { do_id = id; do_kind = kind;
          do_wire =
            (match wire with Line l -> l | Request q -> t.wire_of ~id q);
          do_generation = generation; do_config = config;
          do_config_fp = config_fp; do_outcome = outcome; do_detail = detail;
          do_cached = cached; do_steps = steps; do_dur_ns = dur_ns;
          do_response_fp = t.fingerprint ~kind response; do_cache_chain = cache_chain;
          do_spans = spans })
  end;
  let i = t.recorded mod t.capacity in
  t.ids.(i) <- id;
  t.kinds.(i) <- kind;
  (match wire with
  | Line l ->
    store_line t i l;
    t.requests.(i) <- t.no_request
  | Request q ->
    t.line_pos.(i) <- t.head;
    t.line_lens.(i) <- -1;
    t.requests.(i) <- q);
  t.generations.(i) <- generation;
  t.configs.(i) <- config;
  t.config_fps.(i) <- config_fp;
  t.outcomes.(i) <- outcome;
  t.details.(i) <- detail;
  t.cached.(i) <- cached;
  t.steps.(i) <- steps;
  t.durs.(i) <- dur_ns;
  t.responses.(i) <- response;
  (* an int loop, not [Array.blit]: a blit into an old array goes
     through the write barrier once per element *)
  for k = 0 to width - 1 do
    t.chains.((i * width) + k) <- chain.(k)
  done;
  t.spans.(i) <- spans;
  t.recorded <- t.recorded + 1

(* The dossier in slot [i], built now: its wire line and response
   digest are computed here, not at record time. *)
let dossier_at t i =
  let id = t.ids.(i) and kind = t.kinds.(i) in
  { do_id = id; do_kind = kind;
    do_wire =
      (let len = t.line_lens.(i) in
       if len < 0 then t.wire_of ~id t.requests.(i)
       else if len = 0 then ""
       else arena_read t.arena t.line_pos.(i) len);
    do_generation = t.generations.(i); do_config = t.configs.(i);
    do_config_fp = t.config_fps.(i); do_outcome = t.outcomes.(i);
    do_detail = t.details.(i); do_cached = t.cached.(i); do_steps = t.steps.(i);
    do_dur_ns = t.durs.(i); do_response_fp = t.fingerprint ~kind t.responses.(i);
    do_cache_chain = chain_list t t.chains (i * 2 * Array.length t.caches);
    do_spans = t.spans.(i) }

(* Slot indices of the retained dossiers, oldest first. *)
let slots t =
  let n = retained t in
  List.init n (fun k -> (t.recorded - n + k) mod t.capacity)

let dossiers t = List.map (dossier_at t) (slots t)

let slowest t = List.map (fun (_, d) -> Lazy.force d) t.slow

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
  let spans = String.concat "," (List.map Trace.span_to_json d.do_spans) in
  Printf.sprintf
    "{\"id\":%d,\"kind\":%s,\"wire\":%s,\"generation\":%d,\"config\":%s,\
     \"config_fp\":%s,\"outcome\":%s,\"detail\":%s,\"cached\":%b,\
     \"steps\":%d,\"dur_ns\":%s,\"response_fp\":%s,\"cache_chain\":[%s],\
     \"spans\":[%s]}"
    d.do_id (Json.str d.do_kind)
    (Json.str d.do_wire)
    d.do_generation (Json.str d.do_config) (Json.str d.do_config_fp)
    (Json.str d.do_outcome) (Json.str d.do_detail) d.do_cached d.do_steps
    (Json.num d.do_dur_ns)
    (Json.str d.do_response_fp)
    chain spans

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
    let do_spans = entries "spans" Trace.span_of_json j in
    { do_id; do_kind; do_wire; do_generation; do_config; do_config_fp;
      do_outcome; do_detail; do_cached; do_steps; do_dur_ns; do_response_fp;
      do_cache_chain; do_spans }
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
  let count p = List.length (List.filter p (slots t)) in
  let errors = count (fun i -> t.outcomes.(i) <> "ok") in
  let with_spans = count (fun i -> t.spans.(i) <> []) in
  Fmt.pf ppf
    "flight recorder: %d recorded, %d retained (%d dropped), %d error \
     dossier(s), %d with span trees"
    (recorded t) (retained t) (dropped t) errors with_spans

(* Slowest first: the header, then [#id kind dur] and the span tree of
   each of the k slowest dossiers. *)
let pp_slowest ppf t =
  match slowest t with
  | [] -> Fmt.string ppf "slowest requests: empty (no traffic)"
  | slow ->
    Fmt.pf ppf "@[<v>slowest requests";
    List.iter
      (fun d ->
        Fmt.pf ppf "@,#%d %s  %a@,%a" d.do_id d.do_kind Trace.pp_dur
          d.do_dur_ns Trace.pp_tree d.do_spans)
      (List.rev slow);
    Fmt.pf ppf "@]"
