(* The harness around the Node state machines: configuration and
   failure translation, the Engine run, derived series, the
   single-node consistency audit, and the JSONL dump the CLI audits
   offline. Everything here is simulated time — no wall clock — so
   equal (config, workload) pairs produce bit-identical output. *)

module Engine = Gp_distsim.Engine
module Topology = Gp_distsim.Topology
module Server = Gp_service.Server
module Request = Gp_service.Request
module Lru = Gp_service.Lru
module Wire = Gp_service.Wire
module Flight = Gp_service.Flight
module Json = Gp_telemetry.Json

type failure =
  | Drop of float
  | Crash_replica of { replica : int; at : float }
  | Crash_leader of { at : float }
  | Partition of { groups : int list list; from_ : float; until : float }

type config = {
  replicas : int;
  vnodes : int;
  affinity : bool;
  timing : Engine.timing;
  seed : int;
  failures : failure list;
  tuning : Node.tuning;
  arrivals : float array option;
  elastic : Node.elastic_event list;
  server_config : Server.config;
  max_time : float;
  max_events : int;
  trace : bool;
}

let default_config =
  {
    replicas = 3;
    vnodes = 64;
    affinity = true;
    timing = Engine.Synchronous;
    seed = 42;
    failures = [];
    tuning = Node.default_tuning;
    arrivals = None;
    elastic = [];
    server_config =
      { Server.default_config with
        timeout = None;
        now = (fun () -> 0.0); (* replaced by each node's simulated clock *)
        flight_capacity = 0 };
    max_time = 100_000.0;
    max_events = 2_000_000;
    trace = false;
  }

type result = {
  r_config : config;
  r_requests : Request.t array;
  r_records : Node.record option array;
  r_completed : int;
  r_metrics : Engine.metrics;
  r_elections : int;
  r_failovers : (float * float) list;
  r_leaders : (float * int) list;
  r_cache_hits : int;
  r_cache_misses : int;
  r_shed_admission : int;
  r_shed_overload : int;
  r_promotions : int;
  r_promoted_keys : string list;
  r_joined : int;
  r_left : int;
  r_handoffs : int;
  r_peak_inflight : int;
  r_moved_keys : int;
  r_moved_bound : int;
  r_counts : Node.counts;
  r_traces : (int * Gp_telemetry.Trace.span list) list;
}

(* The initial election is FloodMax over replica ids, so its winner is
   the highest id — which is what Crash_leader targets. *)
let to_engine_failure ~replicas = function
  | Drop prob -> Engine.Drop_links { prob }
  | Crash_replica { replica; at } -> Engine.Crash { node = replica; at }
  | Crash_leader { at } -> Engine.Crash { node = replicas; at }
  | Partition { groups; from_; until } ->
    Engine.Partition { groups; from_; until }

(* Minimal-movement accounting, precomputed against the workload's
   distinct keys: replay the membership schedule over a shadow ring and
   count, per event, how many keys changed shard owner (moved) and how
   many the minimal-movement contract allows — exactly the keys on the
   joiner's new arcs, or the leaver's old ones (bound). Consistent
   hashing should make these equal; the qcheck property and the S10
   gate both assert moved <= bound. *)
let movement ~ring ~elastic keys =
  let moved = ref 0 and bound = ref 0 in
  let _final =
    List.fold_left
      (fun ring ev ->
        let ring' =
          if ev.Node.el_join then Hash_ring.add_replica ring ev.Node.el_replica
          else Hash_ring.remove_replica ring ev.Node.el_replica
        in
        List.iter
          (fun key ->
            let before = Hash_ring.shard ring key in
            let after = Hash_ring.shard ring' key in
            if before <> after then incr moved;
            if (ev.Node.el_join && after = ev.Node.el_replica)
               || ((not ev.Node.el_join) && before = ev.Node.el_replica)
            then incr bound)
          keys;
        ring')
      ring elastic
  in
  (!moved, !bound)

let distinct_keys reqs =
  let seen = Hashtbl.create 64 in
  Array.fold_left
    (fun acc req ->
      let k = Request.key req in
      if Hashtbl.mem seen k then acc
      else (
        Hashtbl.add seen k ();
        k :: acc))
    [] reqs
  |> List.rev

let max_replicas = 1024

let run ?(config = default_config) reqs =
  if config.replicas < 1 then invalid_arg "Cluster.run: replicas < 1";
  (match config.arrivals with
   | Some arr when Array.length arr < Array.length reqs ->
     invalid_arg "Cluster.run: arrivals shorter than the workload"
   | _ -> ());
  let elastic =
    List.sort (fun a b -> compare a.Node.el_at b.Node.el_at) config.elastic
  in
  List.iter
    (fun ev ->
      if ev.Node.el_replica < 1 then
        invalid_arg "Cluster.run: elastic replica < 1";
      if ev.Node.el_at <= 0.0 then
        invalid_arg "Cluster.run: elastic event at non-positive time";
      if (not config.affinity) && ev.Node.el_join then
        invalid_arg "Cluster.run: elastic join needs key-sharded reads")
    elastic;
  (* Late joiners occupy node slots above the initial replicas; size the
     topology for the highest slot any event names. *)
  let n =
    List.fold_left
      (fun acc ev -> max acc ev.Node.el_replica)
      config.replicas elastic
  in
  if n > max_replicas then
    invalid_arg "Cluster.run: a replica slot above max_replicas";
  let ring =
    Hash_ring.create ~vnodes:config.vnodes
      ~replicas:(List.init config.replicas (fun i -> i + 1))
      ()
  in
  let moved_keys, moved_bound =
    match elastic with
    | [] -> (0, 0)
    | _ -> movement ~ring ~elastic (distinct_keys reqs)
  in
  let active = Array.init (n + 1) (fun i -> i >= 1 && i <= config.replicas) in
  (* Tracing artifacts: one span ring per node. Capacity is generous —
     spans are ~6 per request at the router plus a couple per replica
     touch — and the ring discipline still bounds memory if a scenario
     blows past it. Request traces use their rid as trace id; aux
     traces (elections, probes) start above the workload, with the
     initial election's ids pre-allocated. *)
  let node_traces =
    if config.trace then
      Array.init (n + 1) (fun _ ->
          Gp_telemetry.Trace.create ~capacity:65536 ~clock:(fun () -> 0.0) ())
    else [||]
  in
  let world =
    {
      Node.reqs;
      routes = Hashtbl.create 64;
      ring;
      n_replicas = n;
      active;
      affinity = config.affinity;
      tuning = config.tuning;
      arrivals = config.arrivals;
      elastic;
      server_config = config.server_config;
      servers = Array.make (n + 1) None;
      records = Array.make (Array.length reqs) None;
      served = Array.make (Array.length reqs) [];
      completed = 0;
      elections = 0;
      failovers = [];
      leader_log = [];
      shed_admission = 0;
      shed_overload = 0;
      promotions = 0;
      promoted_keys = [];
      joined = 0;
      left = 0;
      handoffs = 0;
      peak_inflight = 0;
      counts =
        { Node.serves = 0; replicates = 0; retries = 0;
          dispatched_to = Array.make (n + 1) 0;
          rid_dispatches = Array.make (Array.length reqs) 0 };
      trace_on = config.trace;
      node_traces;
      next_span = (if config.trace then 1 else 0);
      next_trace =
        (if config.trace then Array.length reqs + 1 else 0);
      el0_trace = (if config.trace then Array.length reqs else 0);
      el0_span = (if config.trace then 1 else 0);
    }
  in
  let engine_config =
    {
      Engine.timing = config.timing;
      (* the initial leader is the highest initially-active id, not a
         slot reserved for a late joiner *)
      failures =
        List.map (to_engine_failure ~replicas:config.replicas) config.failures;
      seed = config.seed;
      max_time = config.max_time;
      max_events = config.max_events;
    }
  in
  let res =
    Engine.run ~config:engine_config
      (Topology.complete (n + 1))
      (Node.algorithm world)
  in
  let hits, misses =
    Array.fold_left
      (fun acc -> function
        | None -> acc
        | Some server ->
          List.fold_left
            (fun (h, m) st -> (h + st.Lru.st_hits, m + st.Lru.st_misses))
            acc
            (Server.cache_stats server))
      (0, 0) world.Node.servers
  in
  {
    r_config = config;
    r_requests = reqs;
    r_records = world.Node.records;
    r_completed = world.Node.completed;
    r_metrics = res.Engine.metrics;
    r_elections = world.Node.elections;
    r_failovers = List.rev world.Node.failovers;
    r_leaders = List.rev world.Node.leader_log;
    r_cache_hits = hits;
    r_cache_misses = misses;
    r_shed_admission = world.Node.shed_admission;
    r_shed_overload = world.Node.shed_overload;
    r_promotions = world.Node.promotions;
    r_promoted_keys = List.rev world.Node.promoted_keys;
    r_joined = world.Node.joined;
    r_left = world.Node.left;
    r_handoffs = world.Node.handoffs;
    r_peak_inflight = world.Node.peak_inflight;
    r_moved_keys = moved_keys;
    r_moved_bound = moved_bound;
    r_counts = world.Node.counts;
    r_traces =
      (if config.trace then
         List.init (n + 1) (fun i ->
             (i, Gp_telemetry.Trace.spans node_traces.(i)))
       else []);
  }

(* -------------------------------------------------------------- *)
(* Derived series                                                  *)
(* -------------------------------------------------------------- *)

let messages_per_request r =
  float_of_int r.r_metrics.Engine.messages_sent
  /. float_of_int (max 1 r.r_completed)

let hit_ratio r =
  let total = r.r_cache_hits + r.r_cache_misses in
  if total = 0 then 0.0 else float_of_int r.r_cache_hits /. float_of_int total

let fold_records f acc r =
  Array.fold_left
    (fun acc -> function None -> acc | Some rc -> f acc rc)
    acc r.r_records

let mean_latency r =
  if r.r_completed = 0 then 0.0
  else
    fold_records
      (fun acc rc -> acc +. (rc.Node.rc_done -. rc.Node.rc_arrive))
      0.0 r
    /. float_of_int r.r_completed

let max_latency r =
  fold_records
    (fun acc rc -> Float.max acc (rc.Node.rc_done -. rc.Node.rc_arrive))
    0.0 r

let retried r =
  fold_records
    (fun acc rc -> if rc.Node.rc_attempts > 1 then acc + 1 else acc)
    0 r

let shed_total r = r.r_shed_admission + r.r_shed_overload

let shed_ratio r =
  if r.r_completed = 0 then 0.0
  else float_of_int (shed_total r) /. float_of_int r.r_completed

(* Latency percentile over served (non-shed) records; q in [0,1]. *)
let latency_percentile r q =
  let lats =
    fold_records
      (fun acc rc ->
        if rc.Node.rc_shed then acc
        else (rc.Node.rc_done -. rc.Node.rc_arrive) :: acc)
      [] r
  in
  match lats with
  | [] -> 0.0
  | lats ->
    let a = Array.of_list lats in
    Array.sort compare a;
    let n = Array.length a in
    let i = int_of_float (Float.round (q *. float_of_int (n - 1))) in
    a.(max 0 (min (n - 1) i))

let timing_name = function
  | Engine.Synchronous -> "synchronous"
  | Engine.Asynchronous { max_delay } ->
    Printf.sprintf "asynchronous(max %g)" max_delay
  | Engine.Partially_synchronous { bound } ->
    Printf.sprintf "partially-synchronous(bound %g)" bound

let pp_summary ppf r =
  let writes =
    Array.fold_left
      (fun acc req -> if Proto.is_write req then acc + 1 else acc)
      0 r.r_requests
  in
  let m = r.r_metrics in
  Fmt.pf ppf "cluster: %d replicas + router, %s, seed %d, %s reads@."
    r.r_config.replicas
    (timing_name r.r_config.timing)
    r.r_config.seed
    (if r.r_config.affinity then "key-sharded" else "round-robin");
  Fmt.pf ppf "workload: %d requests (%d writes), completed %d/%d@."
    (Array.length r.r_requests) writes r.r_completed
    (Array.length r.r_requests);
  Fmt.pf ppf
    "traffic: %d sent, %d delivered, %d dropped — %.2f msgs/request@."
    m.Engine.messages_sent m.Engine.messages_delivered
    m.Engine.messages_dropped (messages_per_request r);
  Fmt.pf ppf "retries: %d requests redispatched; elections: %d" (retried r)
    r.r_elections;
  (match r.r_failovers with
   | [] -> Fmt.pf ppf "; failovers: none@."
   | fos ->
     let lats = List.map (fun (t0, t1) -> t1 -. t0) fos in
     Fmt.pf ppf "; failovers: %d (%s %s)@." (List.length fos)
       (if List.length fos > 1 then "latencies" else "latency")
       (String.concat ", " (List.map (Printf.sprintf "%.2f") lats)));
  Fmt.pf ppf "latency (sim): mean %.2f, max %.2f@." (mean_latency r)
    (max_latency r);
  Fmt.pf ppf "caches: %.1f%% hit ratio (%d hits / %d lookups)@."
    (100.0 *. hit_ratio r)
    r.r_cache_hits
    (r.r_cache_hits + r.r_cache_misses);
  (* Scenario lines only when the corresponding machinery was armed, so
     pre-scenario summaries stay byte-identical. *)
  if r.r_config.tuning.Node.queue_bound > 0
     || r.r_config.tuning.Node.shed_backlog > 0.0
  then
    Fmt.pf ppf
      "overload: %d shed (%d admission, %d overload) — %.1f%%, peak queue %d@."
      (shed_total r) r.r_shed_admission r.r_shed_overload
      (100.0 *. shed_ratio r)
      r.r_peak_inflight;
  if r.r_config.tuning.Node.hot_capacity > 0 then
    Fmt.pf ppf "hot keys: %d promoted%s@." r.r_promotions
      (match r.r_promoted_keys with
       | [] -> ""
       | ks -> " (" ^ String.concat ", " ks ^ ")");
  if r.r_config.elastic <> [] then
    Fmt.pf ppf
      "elastic: %d joined, %d left, %d handoffs; moved %d keys (bound %d)@."
      r.r_joined r.r_left r.r_handoffs r.r_moved_keys r.r_moved_bound;
  Fmt.pf ppf "sim: %d events, finish time %.2f@." m.Engine.events
    m.Engine.finish_time

(* -------------------------------------------------------------- *)
(* Consistency audit                                               *)
(* -------------------------------------------------------------- *)

type audit = {
  au_total : int;
  au_compared : int;
  au_missing : int;
  au_shed : int;
  au_divergences : int Flight.divergence list;
}

let audit_ok a = a.au_missing = 0 && a.au_divergences = []

(* Re-serve the compared (rid, request, cluster fingerprint) items on
   one fresh single server, in rid (= arrival) order. Shed verdicts
   carry no fingerprint and are excluded by construction — [shed]
   keeps the accounting honest: compared + missing + shed = total. *)
let audit_items ~config ~total ~shed items =
  let (_ : int), divergences = Flight.re_serve config items in
  let compared = List.length items in
  { au_total = total;
    au_compared = compared;
    au_missing = total - compared - shed;
    au_shed = shed;
    au_divergences = divergences }

let audit r =
  let shed = ref 0 and items = ref [] in
  for rid = Array.length r.r_records - 1 downto 0 do
    match r.r_records.(rid) with
    | None -> ()
    | Some rc when rc.Node.rc_shed -> incr shed
    | Some rc ->
      items :=
        (rid, Flight.Decoded (rid, r.r_requests.(rid)), rc.Node.rc_fp)
        :: !items
  done;
  audit_items ~config:r.r_config.server_config
    ~total:(Array.length r.r_requests) ~shed:!shed !items

let pp_audit ppf a =
  Fmt.pf ppf "audit: %d/%d compared, %d missing, %s%d divergent@." a.au_compared
    a.au_total a.au_missing
    (if a.au_shed > 0 then Printf.sprintf "%d shed, " a.au_shed else "")
    (List.length a.au_divergences);
  List.iter
    (fun d ->
      Fmt.pf ppf "  rid %d: cluster %s vs single %s@." d.Flight.dv_item
        d.Flight.dv_recorded_fp d.Flight.dv_response_fp)
    a.au_divergences;
  if audit_ok a then
    Fmt.pf ppf "audit PASS: every replicated answer matches single-node@."
  else Fmt.pf ppf "audit FAIL@."

(* -------------------------------------------------------------- *)
(* Dump / offline audit                                            *)
(* -------------------------------------------------------------- *)

let dump r =
  let buf = Buffer.create 4096 in
  let header =
    Json.Obj
      [
        ("gp_cluster", Json.Int 1);
        ("replicas", Json.Int r.r_config.replicas);
        ("vnodes", Json.Int r.r_config.vnodes);
        ("affinity", Json.Bool r.r_config.affinity);
        ("seed", Json.Int r.r_config.seed);
        ("n", Json.Int (Array.length r.r_requests));
        ("completed", Json.Int r.r_completed);
        ("elections", Json.Int r.r_elections);
        ("shed", Json.Int (shed_total r));
        ("promoted", Json.Int r.r_promotions);
        ("joined", Json.Int r.r_joined);
        ("left", Json.Int r.r_left);
        ("server_config",
         Json.parse (Server.config_to_line r.r_config.server_config));
      ]
  in
  Buffer.add_string buf (Json.to_string header);
  Buffer.add_char buf '\n';
  Array.iter
    (function
      | None -> ()
      | Some rc ->
        let line =
          Json.Obj
            ([
              ("rid", Json.Int rc.Node.rc_rid);
              ("kind", Json.Str (Request.kind_name rc.Node.rc_kind));
              ("write", Json.Bool rc.Node.rc_write);
              ("replica", Json.Int rc.Node.rc_replica);
              ("fp", Json.Str rc.Node.rc_fp);
              ("ok", Json.Bool rc.Node.rc_ok);
              ("cached", Json.Bool rc.Node.rc_cached);
              ("attempts", Json.Int rc.Node.rc_attempts);
              ("arrive", Json.Float rc.Node.rc_arrive);
            ]
            @ (if rc.Node.rc_shed then [ ("shed", Json.Bool true) ] else [])
            @ [
              ("done", Json.Float rc.Node.rc_done);
              ("req",
               Json.parse
                 (Wire.request_to_line ~id:rc.Node.rc_rid
                    r.r_requests.(rc.Node.rc_rid)));
            ])
        in
        Buffer.add_string buf (Json.to_string line);
        Buffer.add_char buf '\n')
    r.r_records;
  Buffer.contents buf

(* Byte position of field [name] inside the raw dump line (the first
   character of the key, after its quote), for the wire's
   positioned-error convention ("at <pos>: ..."). The key always occurs
   in the line the parse just consumed, so 0 is only a fallback. *)
let field_pos line name =
  let key = "\"" ^ name ^ "\":" in
  let n = String.length line and m = String.length key in
  let rec go i =
    if i + m > n then 0
    else if String.sub line i m = key then i + 1
    else go (i + 1)
  in
  go 0

let malformed line name what =
  Json.fail "at %d: bad field %S (%s)" (field_pos line name) name what

(* An optional non-negative Int field: absent is fine (pre-scenario
   dumps), any other shape is a positioned rejection. *)
let opt_count line obj name =
  match Json.field name obj with
  | None -> 0
  | Some (Json.Int i) when i >= 0 -> i
  | Some _ -> malformed line name "want a non-negative int"

(* A dump header: the workload size and the server config. *)
let dump_header line =
  let header = Json.parse line in
  if Json.field "gp_cluster" header <> Some (Json.Int 1) then
    Json.fail "not a gp_cluster dump (bad header)";
  let total = Json.int_field "n" header in
  if total < 0 then malformed line "n" "want a non-negative int";
  (* validate the scenario header counters even though the audit
     recomputes shed from the records themselves *)
  let (_ : int) = opt_count line header "shed" in
  let (_ : int) = opt_count line header "promoted" in
  let (_ : int) = opt_count line header "joined" in
  let (_ : int) = opt_count line header "left" in
  match
    Server.config_of_json (Json.Obj (Json.obj_field "server_config" header))
  with
  | Ok c -> (total, c)
  | Error e -> Json.fail "bad server_config: %s" e

(* A dump record: [None] if shed, else the item to re-serve. [seen]
   holds the rids of earlier records. *)
let dump_record ~total ~seen line =
  let obj = Json.parse line in
  let rid = Json.int_field "rid" obj in
  if rid < 0 || rid >= total then
    malformed line "rid" (Printf.sprintf "want 0 <= rid < %d" total);
  if Hashtbl.mem seen rid then
    malformed line "rid" (Printf.sprintf "rid %d repeated" rid);
  Hashtbl.add seen rid ();
  let is_shed =
    match Json.field "shed" obj with
    | None -> false
    | Some (Json.Bool b) -> b
    | Some _ -> malformed line "shed" "want a bool"
  in
  if is_shed then None
  else
    let fp = Json.str_field "fp" obj in
    let req =
      match
        Wire.request_of_line
          (Json.to_string (Json.Obj (Json.obj_field "req" obj)))
      with
      | Ok (_, req) -> req
      | Error e -> Json.fail "bad request: %s" e
    in
    Some (rid, Flight.Decoded (rid, req), fp)

let audit_dump doc =
  match Json.lines doc with
  | [] -> Error "empty dump"
  | header :: records -> (
    try
      let total, config = Json.on_line header dump_header in
      (* every record names a distinct request of the workload, so a
         duplicated or foreign record cannot stand in for a missing one *)
      let seen = Hashtbl.create 256 in
      let records =
        List.map (fun r -> Json.on_line r (dump_record ~total ~seen)) records
      in
      let shed = List.length (List.filter Option.is_none records) in
      Ok (audit_items ~config ~total ~shed (List.filter_map Fun.id records))
    with Json.Error e -> Error e)
