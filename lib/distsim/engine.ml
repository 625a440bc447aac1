(* The deterministic discrete-event message-passing simulator.

   This is the testbed substitute for the paper's Section 4: it executes
   distributed algorithms as state machines exchanging messages under a
   chosen timing model, with seeded failure injection, and it *accounts for
   local computation* — the cost the paper complains is "rarely accounted
   for" in the literature — alongside message and time metrics. Identical
   seeds give identical runs. *)

(* ------------------------------------------------------------------ *)
(* Timing models (taxonomy dimension 6)                                *)
(* ------------------------------------------------------------------ *)

type timing =
  | Synchronous (* every message takes exactly 1 time unit *)
  | Asynchronous of { max_delay : float } (* uniform (0, max_delay] *)
  | Partially_synchronous of { bound : float } (* uniform (0, bound], known *)

(* ------------------------------------------------------------------ *)
(* Failure models (taxonomy dimension 3)                               *)
(* ------------------------------------------------------------------ *)

type 'msg failure =
  | Crash of { node : int; at : float } (* crash-stop at time [at] *)
  | Drop_links of { prob : float } (* each message dropped with prob *)
  | Byzantine of { node : int; corrupt : 'msg -> 'msg }
  | Partition of { groups : int list list; from_ : float; until : float }
      (* network partition active while from_ <= now < until: listed
         groups are islands, unlisted nodes together form one implicit
         island, and messages crossing islands are dropped (no RNG
         draw, so runs without partitions keep their exact stream) *)

type 'msg config = {
  timing : timing;
  failures : 'msg failure list;
  seed : int;
  max_time : float; (* safety horizon *)
  max_events : int;
}

let default_config =
  { timing = Synchronous; failures = []; seed = 42; max_time = 1e6;
    max_events = 2_000_000 }

(* ------------------------------------------------------------------ *)
(* The process interface                                               *)
(* ------------------------------------------------------------------ *)

(* Handlers receive a context with the node's identity and neighbourhood,
   plus effect functions: [send] enqueues a message to a neighbour,
   [charge] accounts local computation steps, [decide] records the node's
   output, [halt] stops the node, [timer] schedules a message back to
   this node after a chosen simulated delay (a local alarm clock: not a
   network message, so it is exempt from drops, corruption and
   partitions, draws no RNG, and stays out of the message metrics). *)
type 'msg ctx = {
  self : int;
  neighbors : int list;
  now : unit -> float;
  send : int -> 'msg -> unit;
  timer : delay:float -> 'msg -> unit;
  charge : int -> unit;
  decide : string -> unit;
  halt : unit -> unit;
}

type ('state, 'msg) algorithm = {
  algo_name : string;
  initial : 'msg ctx -> 'state;
  on_message : 'msg ctx -> 'state -> src:int -> 'msg -> 'state;
}

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

type metrics = {
  messages_sent : int;
  messages_delivered : int;
  messages_dropped : int;
  local_steps : int array; (* per node *)
  sent_by : int array; (* per-node sends (timers excluded) *)
  delivered_to : int array; (* per-node deliveries (timers excluded) *)
  finish_time : float;
  events : int;
}

let total_local_steps m = Array.fold_left ( + ) 0 m.local_steps
let max_local_steps m = Array.fold_left max 0 m.local_steps

type result = {
  decisions : string option array;
  halted : bool array;
  metrics : metrics;
}

(* ------------------------------------------------------------------ *)
(* Event queue: an index heap over parallel slot arrays               *)
(* ------------------------------------------------------------------ *)

(* An event lives in a slot: its time (unboxed in a float array), its
   sequence number, source, destination and message sit at the same
   index of five parallel arrays, so scheduling and popping allocate
   nothing once the arrays have grown. [heap] holds slot indices: its
   first [len] entries form a binary min-heap on (time, seq), and the
   entries past [len] are the free slots, so [heap] is always a
   permutation of [0, capacity). [seq] is unique, so (time, seq) is a
   total order: every correct heap pops events in the same order, and
   runs stay reproducible. A negative [src] marks a timer: a local
   alarm from [dst] to itself, outside the message metrics. *)
module Eq = struct
  type 'msg t = {
    mutable ts : float array;
    mutable seq : int array;
    mutable src : int array;
    mutable dst : int array;
    mutable msgs : 'msg array;
    mutable heap : int array;
    mutable len : int;
  }

  let create () =
    { ts = [||]; seq = [||]; src = [||]; dst = [||]; msgs = [||];
      heap = [||]; len = 0 }

  let lt q a b =
    let ta = q.ts.(a) and tb = q.ts.(b) in
    ta < tb || (ta = tb && q.seq.(a) < q.seq.(b))

  (* Only called when every slot is live: the new slots are all free.
     The messages double by appending the array to itself: a fill of
     [msg], a young value, would make [Array.make] over 256 words force
     a minor collection at every growth. The stale copies in the free
     half are overwritten before they are read. *)
  let grow q msg =
    let cap = Array.length q.heap in
    let cap' = max 16 (2 * cap) in
    let extend a fill =
      let a' = Array.make cap' fill in
      Array.blit a 0 a' 0 cap;
      a'
    in
    q.ts <- extend q.ts 0.0;
    q.seq <- extend q.seq 0;
    q.src <- extend q.src 0;
    q.dst <- extend q.dst 0;
    q.msgs <- (if cap = 0 then Array.make cap' msg else Array.append q.msgs q.msgs);
    q.heap <- Array.init cap' (fun i -> if i < cap then q.heap.(i) else i)

  let[@inline] push q ~t ~seq ~src ~dst msg =
    if q.len = Array.length q.heap then grow q msg;
    let s = q.heap.(q.len) in
    q.ts.(s) <- t;
    q.seq.(s) <- seq;
    q.src.(s) <- src;
    q.dst.(s) <- dst;
    q.msgs.(s) <- msg;
    (* sift up: move the hole towards the root, then drop [s] in *)
    let i = ref q.len in
    q.len <- q.len + 1;
    while
      !i > 0
      &&
      let p = (!i - 1) / 2 in
      lt q s q.heap.(p)
    do
      let p = (!i - 1) / 2 in
      q.heap.(!i) <- q.heap.(p);
      i := p
    done;
    q.heap.(!i) <- s

  (* The slot of the earliest event; the queue must be non-empty. *)
  let top q = q.heap.(0)

  (* Remove the earliest event and return its slot. The slot goes back
     to the free region, so the caller must read it before the next
     [push]. *)
  let pop q =
    let top = q.heap.(0) in
    q.len <- q.len - 1;
    let len = q.len in
    let last = q.heap.(len) in
    q.heap.(len) <- top;
    if len > 0 then begin
      (* sift down: move the hole towards the leaves, then drop [last] in *)
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 in
        if l >= len then continue := false
        else begin
          let c =
            if l + 1 < len && lt q q.heap.(l + 1) q.heap.(l) then l + 1 else l
          in
          if lt q q.heap.(c) last then begin
            q.heap.(!i) <- q.heap.(c);
            i := c
          end
          else continue := false
        end
      done;
      q.heap.(!i) <- last
    end;
    top
end

(* ------------------------------------------------------------------ *)
(* Simulation                                                          *)
(* ------------------------------------------------------------------ *)

(* The simulated clock: an all-float record, so advancing it does not
   box. *)
type clock = { mutable now : float }

(* The simulation core is untouched by telemetry: the RNG stream, event
   order and metrics are computed exactly as before, and the wrapper only
   reads the finished result — identical transcripts per seed with a sink
   installed or not (the transparency property tests pin this down). *)
let run_core (type s m) ~(config : m config) (topo : Topology.t)
    (algo : (s, m) algorithm) : result =
  let n = Topology.num_nodes topo in
  let rng = Random.State.make [| config.seed |] in
  let queue : m Eq.t = Eq.create () in
  let seq = ref 0 in
  let clock = { now = 0.0 } in
  let sent = ref 0 and delivered = ref 0 and dropped = ref 0 in
  let events = ref 0 in
  let local = Array.make n 0 in
  let sent_by = Array.make n 0 in
  let delivered_to = Array.make n 0 in
  let decisions = Array.make n None in
  let halted = Array.make n false in
  let crashed_at =
    Array.make n infinity
  in
  let drop_prob = ref 0.0 in
  let byzantine : (m -> m) option array = Array.make n None in
  (* each partition becomes (island-id per node, window): listed groups
     are islands 0..k-1, everyone unlisted shares the implicit island k *)
  let partitions = ref [] in
  List.iter
    (function
      | Crash { node; at } ->
        if node >= 0 && node < n then crashed_at.(node) <- at
      | Drop_links { prob } -> drop_prob := prob
      | Byzantine { node; corrupt } ->
        if node >= 0 && node < n then byzantine.(node) <- Some corrupt
      | Partition { groups; from_; until } ->
        let island = Array.make n (List.length groups) in
        List.iteri
          (fun i group ->
            List.iter
              (fun node -> if node >= 0 && node < n then island.(node) <- i)
              group)
          groups;
        partitions := (island, from_, until) :: !partitions)
    config.failures;
  let partitions = !partitions in
  let rec partitioned src dst = function
    | [] -> false
    | (island, from_, until) :: rest ->
      (clock.now >= from_ && clock.now < until && island.(src) <> island.(dst))
      || partitioned src dst rest
  in
  let is_crashed node = clock.now >= crashed_at.(node) in
  let[@inline] delay () =
    match config.timing with
    | Synchronous -> 1.0
    | Asynchronous { max_delay } ->
      let u = Random.State.float rng 1.0 in
      Float.max 1e-6 (u *. max_delay)
    | Partially_synchronous { bound } ->
      let u = Random.State.float rng 1.0 in
      Float.max 1e-6 (u *. bound)
  in
  let send_from src dst msg =
    if (not (is_crashed src)) && not halted.(src) then begin
      incr sent;
      sent_by.(src) <- sent_by.(src) + 1;
      let msg =
        match byzantine.(src) with
        | Some corrupt -> corrupt msg
        | None -> msg
      in
      if partitioned src dst partitions then incr dropped
      else if !drop_prob > 0.0 && Random.State.float rng 1.0 < !drop_prob then
        incr dropped
      else begin
        incr seq;
        Eq.push queue ~t:(clock.now +. delay ()) ~seq:!seq ~src ~dst msg
      end
    end
  in
  (* a timer is a local alarm, not a network message: fixed caller-chosen
     delay (no RNG), immune to drops/partitions/corruption, and invisible
     to the message metrics. It still dies with a crashed/halted node. *)
  let timer_at i delay msg =
    if (not (is_crashed i)) && not halted.(i) then begin
      incr seq;
      Eq.push queue
        ~t:(clock.now +. Float.max 1e-9 delay)
        ~seq:!seq ~src:(-1) ~dst:i msg
    end
  in
  let now () = clock.now in
  (* one context per node for the whole run, built before [initial] *)
  let ctxs =
    Array.init n (fun i ->
        {
          self = i;
          neighbors = Topology.neighbors topo i;
          now;
          send = (fun dst msg -> send_from i dst msg);
          timer = (fun ~delay msg -> timer_at i delay msg);
          charge = (fun k -> local.(i) <- local.(i) + k);
          decide = (fun v -> decisions.(i) <- Some v);
          halt = (fun () -> halted.(i) <- true);
        })
  in
  (* initialisation round at time 0 *)
  let states = Array.init n (fun i -> algo.initial ctxs.(i)) in
  (* main loop: an event past either horizon is neither counted nor
     delivered, and does not advance the clock *)
  while
    queue.Eq.len > 0
    && queue.Eq.ts.(Eq.top queue) <= config.max_time
    && !events < config.max_events
  do
    let slot = Eq.pop queue in
    (* read the slot out before the handler's pushes can reuse it *)
    let src = queue.Eq.src.(slot) and dst = queue.Eq.dst.(slot) in
    let msg = queue.Eq.msgs.(slot) in
    clock.now <- queue.Eq.ts.(slot);
    incr events;
    if (not (is_crashed dst)) && not halted.(dst) then begin
      let src =
        if src < 0 then dst
        else begin
          incr delivered;
          delivered_to.(dst) <- delivered_to.(dst) + 1;
          src
        end
      in
      states.(dst) <- algo.on_message ctxs.(dst) states.(dst) ~src msg
    end
  done;
  {
    decisions;
    halted;
    metrics =
      {
        messages_sent = !sent;
        messages_delivered = !delivered;
        messages_dropped = !dropped;
        local_steps = local;
        sent_by;
        delivered_to;
        finish_time = clock.now;
        events = !events;
      };
  }

let run ?(config = default_config) topo algo =
  let module Tel = Gp_telemetry.Tel in
  Tel.with_span ~name:"distsim.run"
    ~attrs:(fun () ->
      [
        ("algorithm", algo.algo_name);
        ("nodes", string_of_int (Topology.num_nodes topo));
        ("seed", string_of_int config.seed);
      ])
    (fun () ->
      let r = run_core ~config topo algo in
      if Tel.is_enabled () then begin
        let m = r.metrics in
        Tel.attr "events" (string_of_int m.events);
        (* exact, so a reader can histogram it *)
        Tel.attr "finish_time" (Printf.sprintf "%.17g" m.finish_time);
        Tel.attr "messages_sent" (string_of_int m.messages_sent);
        Tel.attr "messages_delivered" (string_of_int m.messages_delivered);
        Tel.attr "messages_dropped" (string_of_int m.messages_dropped);
        Tel.attr "local_steps" (string_of_int (total_local_steps m))
      end;
      r)

let pp_metrics ppf m =
  Fmt.pf ppf
    "msgs sent=%d delivered=%d dropped=%d, time=%.2f, local steps: total=%d \
     max/node=%d"
    m.messages_sent m.messages_delivered m.messages_dropped m.finish_time
    (total_local_steps m) (max_local_steps m)
