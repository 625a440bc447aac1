(* The router and replica state machines. Everything observable is
   written into the shared [world] record: the engine's node states are
   unreachable once the run finishes, and the harness (Cluster.run)
   reads completions, elections and failovers from the world instead.

   The world is also the one place that counts the run's traffic
   ([counts]), on every run, traced or not. Distributed tracing rides
   the same world: when [trace_on] each node owns a span ring, spans are
   stamped with a cluster-global id and a trace id, and the (trace,
   parent span) context crosses the wire inside Proto messages — so the
   assembler can rebuild each request's causal tree across nodes
   afterwards. Tracing is ONE flag check per site ([w.trace_on]) and
   changes no message timing, RNG draw, or event: the simulated
   transcript with tracing on is identical to the one with it off. *)

module Engine = Gp_distsim.Engine
module Server = Gp_service.Server
module Request = Gp_service.Request
module Context = Gp_telemetry.Context
module Trace = Gp_telemetry.Trace

type tuning = {
  arrival_interval : float;
  read_timeout : float;
  backoff_cap : float;
  settle : float;
  hb_interval : float;
  hb_timeout : float;
  (* overload control: all zero by default, which disables them and
     keeps the pre-scenario event stream bit-identical *)
  queue_bound : int;
  service_time : float;
  service_time_hit : float;
  shed_backlog : float;
  (* hot-key mitigation: space-saving detector at the router *)
  hot_capacity : int;
  hot_promote_after : int;
  hot_spread : int;
}

let default_tuning =
  { arrival_interval = 1.0; read_timeout = 8.0; backoff_cap = 64.0;
    settle = 3.0; hb_interval = 5.0; hb_timeout = 16.0;
    queue_bound = 0; service_time = 0.0; service_time_hit = 0.0;
    shed_backlog = 0.0; hot_capacity = 0; hot_promote_after = 0;
    hot_spread = 3 }

type record = {
  rc_rid : int;
  rc_kind : Request.kind;
  rc_write : bool;
  rc_replica : int;
  rc_fp : string;
  rc_ok : bool;
  rc_cached : bool;
  rc_attempts : int;
  rc_shed : bool;
  rc_arrive : float;
  rc_done : float;
}

type elastic_event = { el_at : float; el_join : bool; el_replica : int }

type counts = {
  mutable serves : int;
  mutable replicates : int;
  mutable retries : int;
  dispatched_to : int array; (* per target node slot *)
  rid_dispatches : int array; (* per rid *)
}

(* A read's routing key, the key's ring position, and the shard owner
   last read off [ro_ring] at that position. *)
type route = {
  ro_key : string;
  ro_pos : Hash_ring.position;
  mutable ro_ring : Hash_ring.t;
  mutable ro_shard : int;
}

(* A replica's memoized answer to one request. The fingerprint is
   digested only when a Reply carries it: a serve that just applies a
   Replicate never pays for one. *)
type served = {
  sv_replica : int;
  rsp : Request.response;
  mutable fp : string; (* "" until the first Reply *)
}

type world = {
  reqs : Request.t array;
  routes : (Request.t, route) Hashtbl.t; (* by request content *)
  mutable ring : Hash_ring.t; (* mutated by elastic membership events *)
  n_replicas : int; (* highest node slot: initial replicas + late joiners *)
  active : bool array; (* per-slot ring membership; index 0 unused *)
  affinity : bool;
  tuning : tuning;
  arrivals : float array option; (* open-loop arrival clock per rid *)
  elastic : elastic_event list; (* membership schedule, by time *)
  server_config : Server.config;
  servers : Server.t option array;
  records : record option array;
  served : served list array; (* by rid: each replica's first response *)
  mutable completed : int;
  mutable elections : int;
  mutable failovers : (float * float) list;
  mutable leader_log : (float * int) list;
  mutable shed_admission : int; (* rejected at the router's full queue *)
  mutable shed_overload : int; (* typed Shed replies from backlogged replicas *)
  mutable promotions : int;
  mutable promoted_keys : string list; (* newest first *)
  mutable joined : int;
  mutable left : int;
  mutable handoffs : int; (* completed writes replayed to joiners *)
  mutable peak_inflight : int;
  counts : counts;
  (* distributed tracing: per-node span rings, a cluster-global span-id
     counter and an aux trace-id counter (requests use their rid as trace
     id; elections and probes draw fresh ids above them). All fields are
     dead weight unless [trace_on] — one flag check per site. *)
  trace_on : bool;
  node_traces : Trace.t array; (* length n_replicas+1, or [||] when off *)
  mutable next_span : int;
  mutable next_trace : int;
  el0_trace : int; (* the initial election's pre-allocated trace id *)
  el0_span : int; (* ... and its root span id *)
}

let fresh_span w =
  w.next_span <- w.next_span + 1;
  w.next_span

let fresh_trace w =
  let t = w.next_trace in
  w.next_trace <- t + 1;
  t

(* Simulated time [t] is stored as [t * 1e3] "nanoseconds" in the rings:
   one simulated unit reads as one microsecond, so Chrome's microsecond
   timestamps equal simulated units exactly and pp_dur stays legible.
   Every span carries its trace id as the "trace" attribute — that is
   the key the journey assembler groups by. *)
let emit w ~node ~trace ~id ~parent ~name ~start ~stop attrs =
  ignore
    (Trace.emit w.node_traces.(node) ~id
       ?parent:(if parent = 0 then None else Some parent)
       ~name ~start_ns:(start *. 1e3)
       ~dur_ns:((stop -. start) *. 1e3)
       ~attrs:(("trace", string_of_int trace) :: attrs)
       ())

(* A zero-length span at [now] under ([trace], [parent]), whose own
   context is handed on to the message it causes, so that message's
   span resolves its parent. Callers check [w.trace_on] first. *)
let instant w ~node ~trace ~parent ~name ~now attrs =
  let sp = fresh_span w in
  emit w ~node ~trace ~id:sp ~parent ~name ~start:now ~stop:now attrs;
  Context.v ~trace ~span:sp

(* -------------------------------------------------------------- *)
(* Node states                                                     *)
(* -------------------------------------------------------------- *)

type pending = {
  p_rid : int;
  p_write : bool;
  p_arrive : float;
  mutable p_attempt : int; (* dispatches made so far, minus one *)
  (* tracing bookkeeping (untouched when trace_on is false): the open
     request root span, the open attempt span with its start/target,
     and the start of an open leaderless-parking window (nan = none). *)
  mutable p_req_span : int;
  mutable p_att_span : int;
  mutable p_att_start : float;
  mutable p_att_target : int;
  mutable p_park_since : float;
}

(* The empty slot of the router's [pending] table. It is never
   written: every read of a slot compares it with this first. *)
let no_pending =
  { p_rid = -1; p_write = false; p_arrive = nan; p_attempt = 0;
    p_req_span = 0; p_att_span = 0; p_att_start = nan; p_att_target = 0;
    p_park_since = nan }

type router = {
  pending : pending array; (* by rid: in flight, else [no_pending] *)
  mutable n_pending : int; (* slots not [no_pending] *)
  wait_leader : int Queue.t; (* writes parked until a leader is known *)
  (* hot-key detection: a space-saving (Misra-Gries family) top-k table
     over read dispatch keys. Keys whose counter crosses the promotion
     threshold get replicated reads: their dispatches rotate over the
     ring successors instead of hammering the shard owner. *)
  hk_slots : (string, int) Hashtbl.t; (* key -> slot index *)
  hk_keys : string array;
  hk_counts : int array;
  mutable hk_used : int;
  promoted : (string, int ref) Hashtbl.t; (* key -> rotation counter *)
  mutable rt_leader : int option;
  mutable last_hb : float;
  mutable detect_at : float option; (* presumed-death time, for failover latency *)
  mutable last_election : float; (* last Start_election broadcast *)
  (* tracing: the open election root span and the outstanding liveness
     probe (span id 0 = none open). *)
  mutable rt_el_span : int;
  mutable rt_el_trace : int;
  mutable rt_el_start : float;
  mutable rt_probe_span : int;
  mutable rt_probe_trace : int;
  mutable rt_probe_start : float;
}

type replica = {
  server : Server.t;
  mutable n_served : int; (* distinct rids this replica has served *)
  mutable busy_until : float; (* end of the serialized service backlog *)
  mutable best : int; (* highest uid seen this election round *)
  mutable rep_leader : int option;
  mutable electing : bool;
  (* tracing: the current FloodMax round's span, parented under the
     router's election root carried in by Start_election. *)
  mutable rep_round_span : int;
  mutable rep_round_trace : int;
  mutable rep_round_parent : int;
  mutable rep_round_start : float;
}

type state = R_router of router | R_replica of replica

let backoff w attempt =
  (* 2.**large overflows to infinity, which min caps — intentional *)
  Float.min (w.tuning.read_timeout *. (2. ** float_of_int attempt))
    w.tuning.backoff_cap

let each_replica w ~except f =
  for j = 1 to w.n_replicas do
    if j <> except && w.active.(j) then f j
  done

(* -------------------------------------------------------------- *)
(* Replica machine                                                 *)
(* -------------------------------------------------------------- *)

(* Replica [j]'s entry in a rid's [served] list. A read's list holds
   the replica that served it (more only after retries), a write's one
   entry per replica. *)
let rec served_by j = function
  | [] -> raise_notrace Not_found
  | s :: rest -> if s.sv_replica = j then s else served_by j rest

(* Serve [rid], memoized per replica: a retried or re-replicated request
   reuses the first response, so duplicates cannot fork the fingerprint
   and the work accounting stays honest. Returns [(result, fresh)]. *)
let serve (ctx : Proto.msg Engine.ctx) w rep rid =
  match served_by ctx.self w.served.(rid) with
  | s -> (s, false)
  | exception Not_found ->
    let rsp = Server.handle ~id:rid rep.server w.reqs.(rid) in
    ctx.charge (max 1 rsp.Request.rsp_steps);
    let s = { sv_replica = ctx.self; rsp; fp = "" } in
    w.served.(rid) <- s :: w.served.(rid);
    rep.n_served <- rep.n_served + 1;
    (s, true)

let reply (ctx : Proto.msg Engine.ctx) rid s tc =
  if s.fp = "" then s.fp <- Request.response_fingerprint s.rsp;
  ctx.send 0
    (Proto.Reply
       { rid; replica = ctx.self; fp = s.fp; ok = Request.ok s.rsp;
         cached = s.rsp.Request.rsp_cached; tc })

let start_round (ctx : Proto.msg Engine.ctx) w rep ~tc =
  rep.best <- ctx.self;
  rep.electing <- true;
  let rtc =
    if w.trace_on then begin
      rep.rep_round_span <- fresh_span w;
      rep.rep_round_trace <- Context.trace tc;
      rep.rep_round_parent <- Context.span tc;
      rep.rep_round_start <- ctx.now ();
      Context.v ~trace:rep.rep_round_trace ~span:rep.rep_round_span
    end
    else Context.none
  in
  each_replica w ~except:ctx.self (fun j ->
      ctx.send j (Proto.Elect { uid = ctx.self; tc = rtc }));
  ctx.timer ~delay:w.tuning.settle Proto.Election_settle

let replica_msg (ctx : Proto.msg Engine.ctx) w rep msg =
  match msg with
  | Proto.Elect { uid; tc = _ } -> if uid > rep.best then rep.best <- uid
  | Proto.Election_settle ->
    if rep.electing then begin
      rep.electing <- false;
      let won = rep.best = ctx.self in
      if w.trace_on && rep.rep_round_span <> 0 then
        emit w ~node:ctx.self ~trace:rep.rep_round_trace
          ~id:rep.rep_round_span ~parent:rep.rep_round_parent
          ~name:"cluster.elect_round" ~start:rep.rep_round_start
          ~stop:(ctx.now ())
          [ ("node", string_of_int ctx.self);
            ("best", string_of_int rep.best);
            ("won", string_of_bool won) ];
      if won then begin
        rep.rep_leader <- Some ctx.self;
        let ctc =
          if w.trace_on then
            Context.v ~trace:rep.rep_round_trace ~span:rep.rep_round_span
          else Context.none
        in
        ctx.send 0 (Proto.Coord { uid = ctx.self; tc = ctc });
        each_replica w ~except:ctx.self (fun j ->
            ctx.send j (Proto.Coord { uid = ctx.self; tc = ctc }))
      end
    end
  | Proto.Coord { uid; tc = _ } ->
    (* accept-max within a round; a stale higher uid from a dead leader
       is corrected by the next heartbeat timeout *)
    (match rep.rep_leader with
     | None -> rep.rep_leader <- Some uid
     | Some l -> if uid >= l then rep.rep_leader <- Some uid)
  | Proto.Start_election { tc } -> start_round ctx w rep ~tc
  | Proto.Do_request { rid; attempt; tc } ->
    let now = ctx.now () in
    let already =
      match served_by ctx.self w.served.(rid) with
      | _ -> true
      | exception Not_found -> false
    in
    let backlog = Float.max 0.0 (rep.busy_until -. now) in
    if
      (not already)
      && w.tuning.shed_backlog > 0.0
      && backlog > w.tuning.shed_backlog
    then begin
      (* typed overload rejection: the serialized backlog is past its
         bound, so refuse rather than queue — the router records a shed
         verdict for the client instead of waiting on a reply that
         would only arrive later and later *)
      let stc =
        if w.trace_on then
          instant w ~node:ctx.self ~trace:(Context.trace tc)
            ~parent:(Context.span tc) ~name:"cluster.shed" ~now
            [ ("node", string_of_int ctx.self); ("rid", string_of_int rid);
              ("backlog", Printf.sprintf "%.2f" backlog) ]
        else Context.none
      in
      ctx.send 0 (Proto.Shed { rid; replica = ctx.self; tc = stc })
    end
    else begin
      let s, fresh = serve ctx w rep rid in
      let cached = s.rsp.Request.rsp_cached in
      w.counts.serves <- w.counts.serves + 1;
      (* the serve span is a zero-duration instant: [charge] accounts
         steps without advancing simulated time. Its id is echoed on the
         Reply and parents the Replicate fan-out, so both legs resolve. *)
      let stc =
        if w.trace_on then
          instant w ~node:ctx.self ~trace:(Context.trace tc)
            ~parent:(Context.span tc) ~name:"cluster.serve" ~now
            [ ("node", string_of_int ctx.self); ("rid", string_of_int rid);
              ("attempt", string_of_int attempt);
              ("fresh", string_of_bool fresh);
              ("cached", string_of_bool cached) ]
        else Context.none
      in
      (* the simulated service cost of this serve: fresh misses pay
         [service_time], fresh cache hits [service_time_hit], memoized
         re-deliveries nothing. Zero (the default) keeps the reply
         instantaneous — bit-identical to the pre-scenario protocol. *)
      let st =
        if not fresh then 0.0
        else if cached then w.tuning.service_time_hit
        else w.tuning.service_time
      in
      if st <= 0.0 && backlog <= 0.0 then begin
        reply ctx rid s stc;
        (* first service of a write fans out to the followers; the served
           table makes re-deliveries idempotent on both ends *)
        if fresh && Proto.is_write w.reqs.(rid) then
          each_replica w ~except:ctx.self (fun j ->
              ctx.send j (Proto.Replicate { rid; tc = stc }))
      end
      else begin
        (* a busy replica serializes: the reply leaves when the backlog
           plus this request's own service time has elapsed. Replication
           proceeds immediately — followers warm up while the client
           reply waits its turn. *)
        if fresh && Proto.is_write w.reqs.(rid) then
          each_replica w ~except:ctx.self (fun j ->
              ctx.send j (Proto.Replicate { rid; tc = stc }));
        rep.busy_until <- now +. backlog +. st;
        ctx.timer ~delay:(backlog +. st) (Proto.Reply_due { rid; tc = stc })
      end
    end
  | Proto.Replicate { rid; tc } ->
    let _, fresh = serve ctx w rep rid in
    w.counts.replicates <- w.counts.replicates + 1;
    if w.trace_on then begin
      let now = ctx.now () in
      emit w ~node:ctx.self ~trace:(Context.trace tc) ~id:(fresh_span w)
        ~parent:(Context.span tc) ~name:"cluster.replicate" ~start:now
        ~stop:now
        [ ("node", string_of_int ctx.self); ("rid", string_of_int rid);
          ("fresh", string_of_bool fresh) ]
    end
  | Proto.Ping { tc } ->
    if rep.rep_leader = Some ctx.self then begin
      let htc =
        if w.trace_on then
          instant w ~node:ctx.self ~trace:(Context.trace tc)
            ~parent:(Context.span tc) ~name:"cluster.heartbeat"
            ~now:(ctx.now ())
            [ ("node", string_of_int ctx.self) ]
        else Context.none
      in
      ctx.send 0 (Proto.Heartbeat { uid = ctx.self; tc = htc })
    end
  | Proto.Reply_due { rid; tc } -> (
    (* the deferred reply: the answer was memoized at serve time, the
       timer only models when the serialized server gets to send it *)
    match served_by ctx.self w.served.(rid) with
    | s -> reply ctx rid s tc
    | exception Not_found -> ())
  | Proto.Join { tc } ->
    if w.trace_on then begin
      let now = ctx.now () in
      emit w ~node:ctx.self ~trace:(Context.trace tc) ~id:(fresh_span w)
        ~parent:(Context.span tc) ~name:"cluster.join" ~start:now ~stop:now
        [ ("node", string_of_int ctx.self) ]
    end
  | Proto.Retire { tc = _ } | Proto.Shutdown { tc = _ } ->
    ctx.decide (string_of_int rep.n_served);
    ctx.halt ()
  | Proto.Arrive _ | Proto.Reply _ | Proto.Retry_check _ | Proto.Hb_check
  | Proto.Heartbeat _ | Proto.Shed _ | Proto.Elastic _ ->
    ()

(* -------------------------------------------------------------- *)
(* Router machine                                                  *)
(* -------------------------------------------------------------- *)

(* Space-saving tick for one read dispatch key: tracked keys bump their
   counter, new keys either take a free slot or evict the smallest
   counter and inherit it (the classic overestimate-by-at-most-min
   guarantee). Crossing the promotion threshold promotes the key to
   replicated reads. Deterministic: ties break on the lowest slot. *)
let hk_tick w rt key =
  let cap = w.tuning.hot_capacity in
  let count =
    match Hashtbl.find_opt rt.hk_slots key with
    | Some i ->
      rt.hk_counts.(i) <- rt.hk_counts.(i) + 1;
      rt.hk_counts.(i)
    | None ->
      if rt.hk_used < cap then begin
        let i = rt.hk_used in
        rt.hk_used <- i + 1;
        rt.hk_keys.(i) <- key;
        rt.hk_counts.(i) <- 1;
        Hashtbl.replace rt.hk_slots key i;
        1
      end
      else begin
        let mi = ref 0 in
        for i = 1 to cap - 1 do
          if rt.hk_counts.(i) < rt.hk_counts.(!mi) then mi := i
        done;
        let i = !mi in
        Hashtbl.remove rt.hk_slots rt.hk_keys.(i);
        rt.hk_keys.(i) <- key;
        rt.hk_counts.(i) <- rt.hk_counts.(i) + 1;
        Hashtbl.replace rt.hk_slots key i;
        rt.hk_counts.(i)
      end
  in
  if count >= w.tuning.hot_promote_after && not (Hashtbl.mem rt.promoted key)
  then begin
    Hashtbl.replace rt.promoted key (ref 0);
    w.promotions <- w.promotions + 1;
    w.promoted_keys <- key :: w.promoted_keys
  end

(* A read's route depends on its content alone, so it is computed once
   per distinct request in the run: [Request.key] digests the embedded
   sources and [Hash_ring.position] digests the key, and a stream
   repeats a few hundred requests thousands of times. A key is never
   empty. *)
let route w rid =
  let req = w.reqs.(rid) in
  match Hashtbl.find w.routes req with
  | r -> r
  | exception Not_found ->
    let key = Request.key req in
    let pos = Hash_ring.position key in
    let r =
      { ro_key = key; ro_pos = pos; ro_ring = w.ring;
        ro_shard = Hash_ring.shard_at w.ring pos }
    in
    Hashtbl.add w.routes req r;
    r

(* The route's shard owner, read off each ring once: elastic join and
   leave replace [w.ring], so a physically different ring invalidates
   the memo. *)
let shard_owner w r =
  if r.ro_ring != w.ring then begin
    r.ro_ring <- w.ring;
    r.ro_shard <- Hash_ring.shard_at w.ring r.ro_pos
  end;
  r.ro_shard

let read_target w rt rid attempt =
  if w.affinity then begin
    let r = route w rid in
    match
      (* skip the string hash entirely while nothing is promoted *)
      if Hashtbl.length rt.promoted = 0 then None
      else Hashtbl.find_opt rt.promoted r.ro_key
    with
    | Some rot when w.tuning.hot_spread > 1 ->
      (* a promoted hot key reads from any of the first [hot_spread]
         ring successors, round-robin per fresh dispatch; retries keep
         walking the same rotation so attempt k still lands elsewhere *)
      let succ = Hash_ring.successors_at w.ring r.ro_pos in
      let k = min w.tuning.hot_spread (List.length succ) in
      let i = (!rot + attempt) mod k in
      if attempt = 0 then incr rot;
      List.nth succ i
    | _ ->
      (* first dispatch goes to the shard owner — which is successor 0
         by construction, so skip the full successor walk on the hot
         path (it is O(ring points) and dominates large-fleet runs) *)
      if attempt = 0 then shard_owner w r
      else
        let succ = Hash_ring.successors_at w.ring r.ro_pos in
        List.nth succ (attempt mod List.length succ)
  end
  else 1 + ((rid + attempt) mod w.n_replicas)

(* Close the open attempt span, attributing its outcome ("ok",
   "retry", or "superseded" when a duplicate flush re-dispatches the
   same attempt). Emitting before any overwrite keeps every serve
   span's parent resolvable. *)
let close_attempt w p ~stop ~outcome =
  if p.p_att_span <> 0 then begin
    emit w ~node:0 ~trace:p.p_rid ~id:p.p_att_span ~parent:p.p_req_span
      ~name:"cluster.attempt" ~start:p.p_att_start ~stop
      [ ("attempt", string_of_int p.p_attempt);
        ("target", string_of_int p.p_att_target);
        ("outcome", outcome) ];
    p.p_att_span <- 0
  end

(* Close an open leaderless-parking window as an election-stall span. *)
let close_park w p ~stop =
  if not (Float.is_nan p.p_park_since) then begin
    emit w ~node:0 ~trace:p.p_rid ~id:(fresh_span w) ~parent:p.p_req_span
      ~name:"cluster.park" ~start:p.p_park_since ~stop
      [ ("cause", "no-leader") ];
    p.p_park_since <- nan
  end

(* Close a settled request's open attempt and parking spans, then emit
   its root span. *)
let close_request w p ~stop ~outcome ~replica extra =
  close_attempt w p ~stop ~outcome;
  close_park w p ~stop;
  emit w ~node:0 ~trace:p.p_rid ~id:p.p_req_span ~parent:0
    ~name:"cluster.request" ~start:p.p_arrive ~stop
    ([ ("rid", string_of_int p.p_rid);
       ("kind", Request.kind_name (Request.kind w.reqs.(p.p_rid)));
       ("write", string_of_bool p.p_write);
       ("replica", string_of_int replica);
       ("attempts", string_of_int (p.p_attempt + 1)) ]
    @ extra)

(* Dispatch the pending request's next attempt. Reads go to the shard
   owner, then walk its ring successors on retry; writes go to the
   leader, or park in [wait_leader] until a coordinator is known (the
   Coord acceptance flushes the queue). Every dispatch is counted per
   target and per rid, and arms its own retry timer. *)
let dispatch (ctx : Proto.msg Engine.ctx) w rt p =
  let rid = p.p_rid and attempt = p.p_attempt in
  let fire target =
    let c = w.counts in
    c.dispatched_to.(target) <- c.dispatched_to.(target) + 1;
    c.rid_dispatches.(rid) <- c.rid_dispatches.(rid) + 1;
    let tc =
      if w.trace_on then begin
        close_park w p ~stop:(ctx.now ());
        close_attempt w p ~stop:(ctx.now ()) ~outcome:"superseded";
        p.p_att_span <- fresh_span w;
        p.p_att_start <- ctx.now ();
        p.p_att_target <- target;
        Context.v ~trace:rid ~span:p.p_att_span
      end
      else Context.none
    in
    ctx.send target (Proto.Do_request { rid; attempt; tc });
    ctx.timer ~delay:(backoff w attempt) (Proto.Retry_check { rid; attempt })
  in
  if p.p_write then
    match rt.rt_leader with
    | Some l -> fire l
    | None ->
      if w.trace_on && Float.is_nan p.p_park_since then
        p.p_park_since <- ctx.now ();
      Queue.push rid rt.wait_leader
  else begin
    if
      attempt = 0 && w.affinity
      && w.tuning.hot_capacity > 0
      && w.tuning.hot_promote_after > 0
    then hk_tick w rt (route w rid).ro_key;
    fire (read_target w rt rid attempt)
  end

let start_election (ctx : Proto.msg Engine.ctx) w rt =
  w.elections <- w.elections + 1;
  rt.last_election <- ctx.now ();
  let tc =
    if w.trace_on then begin
      (* a round that never produced a Coord gets closed as superseded
         before the fresh root opens — its replica rounds stay parented
         under the emitted span, so nothing orphans *)
      if rt.rt_el_span <> 0 then
        emit w ~node:0 ~trace:rt.rt_el_trace ~id:rt.rt_el_span ~parent:0
          ~name:"cluster.election" ~start:rt.rt_el_start ~stop:(ctx.now ())
          [ ("outcome", "superseded") ];
      rt.rt_el_span <- fresh_span w;
      rt.rt_el_trace <- fresh_trace w;
      rt.rt_el_start <- ctx.now ();
      Context.v ~trace:rt.rt_el_trace ~span:rt.rt_el_span
    end
    else Context.none
  in
  each_replica w ~except:0 (fun j ->
      ctx.send j (Proto.Start_election { tc }))

(* Everything is done (served or shed): quiesce the cluster. *)
let finish_if_done (ctx : Proto.msg Engine.ctx) w =
  if w.completed = Array.length w.reqs then begin
    each_replica w ~except:0 (fun j ->
        ctx.send j (Proto.Shutdown { tc = Context.none }));
    ctx.decide (string_of_int w.completed);
    ctx.halt ()
  end

(* Open-loop arrivals chain: each Arrive schedules the next from the
   arrival clock, so the heap holds one future arrival instead of the
   whole workload — a million-request run stays flat. *)
let schedule_next_arrival (ctx : Proto.msg Engine.ctx) w rid =
  match w.arrivals with
  | None -> ()
  | Some arr ->
    let next = rid + 1 in
    if next < Array.length w.reqs then
      ctx.timer
        ~delay:(Float.max 1e-9 (arr.(next) -. ctx.now ()))
        (Proto.Arrive next)

let shed_record w rid ~write ~replica ~attempts ~arrive ~done_ =
  w.records.(rid) <-
    Some
      { rc_rid = rid; rc_kind = Request.kind w.reqs.(rid); rc_write = write;
        rc_replica = replica; rc_fp = ""; rc_ok = false; rc_cached = false;
        rc_attempts = attempts; rc_shed = true; rc_arrive = arrive;
        rc_done = done_ };
  w.completed <- w.completed + 1

(* Take [rid] out of the router's in-flight table: its pending request,
   or [no_pending] if it was already settled. *)
let settle rt rid =
  let p = rt.pending.(rid) in
  if p != no_pending then begin
    rt.pending.(rid) <- no_pending;
    rt.n_pending <- rt.n_pending - 1
  end;
  p

let router_msg (ctx : Proto.msg Engine.ctx) w rt msg =
  match msg with
  | Proto.Arrive rid ->
    schedule_next_arrival ctx w rid;
    let inflight = rt.n_pending in
    if w.tuning.queue_bound > 0 && inflight >= w.tuning.queue_bound then begin
      (* admission control: the router queue is full, shed at the door —
         a typed zero-latency rejection, never a hang *)
      let now = ctx.now () in
      shed_record w rid ~write:(Proto.is_write w.reqs.(rid)) ~replica:0
        ~attempts:0 ~arrive:now ~done_:now;
      w.shed_admission <- w.shed_admission + 1;
      if w.trace_on then
        emit w ~node:0 ~trace:rid ~id:(fresh_span w) ~parent:0
          ~name:"cluster.request" ~start:now ~stop:now
          [ ("rid", string_of_int rid);
            ("kind", Request.kind_name (Request.kind w.reqs.(rid)));
            ("shed", "admission") ];
      finish_if_done ctx w
    end
    else begin
      let p =
        { p_rid = rid; p_write = Proto.is_write w.reqs.(rid);
          p_arrive = ctx.now (); p_attempt = 0;
          p_req_span = (if w.trace_on then fresh_span w else 0);
          p_att_span = 0; p_att_start = 0.0; p_att_target = 0;
          p_park_since = nan }
      in
      rt.pending.(rid) <- p;
      rt.n_pending <- inflight + 1;
      if inflight + 1 > w.peak_inflight then w.peak_inflight <- inflight + 1;
      dispatch ctx w rt p
    end
  | Proto.Retry_check { rid; attempt } ->
    let p = rt.pending.(rid) in
    if p != no_pending && p.p_attempt = attempt then begin
      w.counts.retries <- w.counts.retries + 1;
      if w.trace_on then close_attempt w p ~stop:(ctx.now ()) ~outcome:"retry";
      p.p_attempt <- attempt + 1;
      dispatch ctx w rt p
    end
  | Proto.Reply { rid; replica; fp; ok; cached; tc = _ } ->
    let p = settle rt rid in
    (* already settled: a duplicate reply from a retried request *)
    if p != no_pending then begin
      let done_ = ctx.now () in
      w.records.(rid) <-
        Some
          { rc_rid = rid; rc_kind = Request.kind w.reqs.(rid);
            rc_write = p.p_write; rc_replica = replica; rc_fp = fp;
            rc_ok = ok; rc_cached = cached; rc_attempts = p.p_attempt + 1;
            rc_shed = false; rc_arrive = p.p_arrive; rc_done = done_ };
      w.completed <- w.completed + 1;
      if w.trace_on then
        close_request w p ~stop:done_ ~outcome:"ok" ~replica [];
      finish_if_done ctx w
    end
  | Proto.Shed { rid; replica; tc = _ } ->
    let p = settle rt rid in
    (* already settled: a racing Reply came first *)
    if p != no_pending then begin
      let done_ = ctx.now () in
      shed_record w rid ~write:p.p_write ~replica
        ~attempts:(p.p_attempt + 1) ~arrive:p.p_arrive ~done_;
      w.shed_overload <- w.shed_overload + 1;
      if w.trace_on then
        close_request w p ~stop:done_ ~outcome:"shed" ~replica
          [ ("shed", "overload") ];
      finish_if_done ctx w
    end
  | Proto.Elastic { join; replica = r } ->
    if join then begin
      if r >= 1 && r <= w.n_replicas && not w.active.(r) then begin
        w.ring <- Hash_ring.add_replica w.ring r;
        w.active.(r) <- true;
        w.joined <- w.joined + 1;
        let jtc =
          if w.trace_on then
            instant w ~node:0 ~trace:(fresh_trace w) ~parent:0
              ~name:"cluster.elastic" ~now:(ctx.now ())
              [ ("event", "join"); ("replica", string_of_int r) ]
          else Context.none
        in
        ctx.send r (Proto.Join { tc = jtc });
        (* state handoff as replicated writes: replay every completed
           write to the joiner. Its served memo and content caches make
           the replay idempotent, and the ring's minimal movement bounds
           the read-side cache-miss storm to the keys on its arcs. *)
        Array.iter
          (function
            | Some rc when rc.rc_write && not rc.rc_shed ->
              w.handoffs <- w.handoffs + 1;
              ctx.send r (Proto.Replicate { rid = rc.rc_rid; tc = jtc })
            | _ -> ())
          w.records
      end
    end
    else if
      r >= 1 && r <= w.n_replicas
      && w.active.(r)
      && List.length (Hash_ring.replicas w.ring) > 1
    then begin
      w.ring <- Hash_ring.remove_replica w.ring r;
      w.active.(r) <- false;
      w.left <- w.left + 1;
      let ltc =
        if w.trace_on then
          instant w ~node:0 ~trace:(fresh_trace w) ~parent:0
            ~name:"cluster.elastic" ~now:(ctx.now ())
            [ ("event", "leave"); ("replica", string_of_int r) ]
        else Context.none
      in
      ctx.send r (Proto.Retire { tc = ltc });
      (* a graceful leader departure re-elects immediately rather than
         waiting out the heartbeat silence *)
      if rt.rt_leader = Some r then begin
        rt.rt_leader <- None;
        start_election ctx w rt
      end
    end
  | Proto.Coord { uid; tc = _ } ->
    let accept =
      match rt.rt_leader with None -> true | Some l -> uid >= l
    in
    if accept then begin
      rt.rt_leader <- Some uid;
      rt.last_hb <- ctx.now ();
      w.leader_log <- (ctx.now (), uid) :: w.leader_log;
      (match rt.detect_at with
       | Some t0 ->
         w.failovers <- (t0, ctx.now ()) :: w.failovers;
         rt.detect_at <- None
       | None -> ());
      if w.trace_on && rt.rt_el_span <> 0 then begin
        emit w ~node:0 ~trace:rt.rt_el_trace ~id:rt.rt_el_span ~parent:0
          ~name:"cluster.election" ~start:rt.rt_el_start ~stop:(ctx.now ())
          [ ("winner", string_of_int uid) ];
        rt.rt_el_span <- 0
      end;
      (* a leader exists again: release the parked writes *)
      while not (Queue.is_empty rt.wait_leader) do
        let p = rt.pending.(Queue.pop rt.wait_leader) in
        if p != no_pending then dispatch ctx w rt p
      done
    end
  | Proto.Heartbeat { uid; tc } ->
    if rt.rt_leader = Some uid then begin
      rt.last_hb <- ctx.now ();
      if
        w.trace_on && rt.rt_probe_span <> 0
        && Context.trace tc = rt.rt_probe_trace
      then begin
        emit w ~node:0 ~trace:rt.rt_probe_trace ~id:rt.rt_probe_span
          ~parent:0 ~name:"cluster.probe" ~start:rt.rt_probe_start
          ~stop:(ctx.now ())
          [ ("leader", string_of_int uid) ];
        rt.rt_probe_span <- 0
      end
    end
  | Proto.Hb_check ->
    ctx.timer ~delay:w.tuning.hb_interval Proto.Hb_check;
    (match rt.rt_leader with
     | Some _ when ctx.now () -. rt.last_hb > w.tuning.hb_timeout ->
       rt.rt_leader <- None;
       if rt.detect_at = None then rt.detect_at <- Some (ctx.now ());
       start_election ctx w rt
     | Some l ->
       (* an unanswered probe's root is simply never emitted: a
          heartbeat span whose Ping landed but whose reply was dropped
          surfaces as an orphan — by design, not attached to anything *)
       let tc =
         if w.trace_on then begin
           rt.rt_probe_span <- fresh_span w;
           rt.rt_probe_trace <- fresh_trace w;
           rt.rt_probe_start <- ctx.now ();
           Context.v ~trace:rt.rt_probe_trace ~span:rt.rt_probe_span
         end
         else Context.none
       in
       ctx.send l (Proto.Ping { tc })
     | None
       when rt.n_pending > 0
            && ctx.now () -. rt.last_election > w.tuning.hb_timeout ->
       (* an election round went fully missing (dropped Elects/Coords);
          kick off another rather than stalling the parked writes *)
       start_election ctx w rt
     | None -> ())
  | Proto.Do_request _ | Proto.Replicate _ | Proto.Elect _
  | Proto.Election_settle | Proto.Start_election _ | Proto.Ping _
  | Proto.Shutdown _ | Proto.Reply_due _ | Proto.Join _ | Proto.Retire _ ->
    ()

(* -------------------------------------------------------------- *)
(* Assembly                                                        *)
(* -------------------------------------------------------------- *)

let initial w (ctx : Proto.msg Engine.ctx) =
  if ctx.self = 0 then begin
    (* fixed-cadence runs pre-schedule every arrival (the pre-scenario
       event stream, kept bit-identical); an open-loop arrival clock is
       chained one timer at a time by [schedule_next_arrival] *)
    (match w.arrivals with
     | None ->
       Array.iteri
         (fun rid _ ->
           ctx.timer
             ~delay:(float_of_int (rid + 1) *. w.tuning.arrival_interval)
             (Proto.Arrive rid))
         w.reqs
     | Some arr ->
       if Array.length w.reqs > 0 then
         ctx.timer ~delay:(Float.max 1e-9 arr.(0)) (Proto.Arrive 0));
    List.iter
      (fun ev ->
        ctx.timer ~delay:(Float.max 1e-9 ev.el_at)
          (Proto.Elastic { join = ev.el_join; replica = ev.el_replica }))
      w.elastic;
    ctx.timer ~delay:w.tuning.hb_timeout Proto.Hb_check;
    w.elections <- w.elections + 1; (* the initial round, started below *)
    R_router
      { pending = Array.make (Array.length w.reqs) no_pending; n_pending = 0;
        wait_leader = Queue.create ();
        hk_slots = Hashtbl.create 16;
        hk_keys = Array.make (max 1 w.tuning.hot_capacity) "";
        hk_counts = Array.make (max 1 w.tuning.hot_capacity) 0;
        hk_used = 0; promoted = Hashtbl.create 8;
        rt_leader = None; last_hb = 0.0; detect_at = None;
        last_election = 0.0;
        rt_el_span = w.el0_span; rt_el_trace = w.el0_trace;
        rt_el_start = 0.0; rt_probe_span = 0; rt_probe_trace = 0;
        rt_probe_start = 0.0 }
  end
  else begin
    let config = { w.server_config with Server.now = ctx.now } in
    let server = Server.create ~config () in
    w.servers.(ctx.self) <- Some server;
    let rep =
      { server; n_served = 0; busy_until = 0.0;
        best = ctx.self;
        rep_leader = None; electing = false; rep_round_span = 0;
        rep_round_trace = 0; rep_round_parent = 0; rep_round_start = 0.0 }
    in
    (* only initially-active replicas campaign; a late joiner idles
       until the router's Elastic timer rings it in — it votes in any
       later round it is active for *)
    if w.active.(ctx.self) then
      (* the initial round parents under the pre-allocated election root
         (emitted by the router when the first Coord lands) *)
      start_round ctx w rep
        ~tc:
          (if w.trace_on then Context.v ~trace:w.el0_trace ~span:w.el0_span
           else Context.none);
    R_replica rep
  end

let algorithm w =
  {
    Engine.algo_name = "gp-cluster";
    initial = initial w;
    on_message =
      (fun ctx st ~src:_ msg ->
        (match st with
         | R_router rt -> router_msg ctx w rt msg
         | R_replica rep -> replica_msg ctx w rep msg);
        st);
  }
