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
  heap_peak : int; (* the most events the heap held at once *)
}

let total_local_steps m = Array.fold_left ( + ) 0 m.local_steps
let max_local_steps m = Array.fold_left max 0 m.local_steps

type result = {
  decisions : string option array;
  halted : bool array;
  metrics : metrics;
}

(* ------------------------------------------------------------------ *)
(* Event queue: a sorted run beside an index heap                     *)
(* ------------------------------------------------------------------ *)

(* An event is ordered by (time, seq). [seq] is unique and grows with
   every push, so (time, seq) is a total order: every correct queue pops
   events in the same order, and runs stay reproducible. The queue keeps
   two parts, and [pop] takes whichever head is earlier:
   - the run, a FIFO ring of events whose times never decrease from one
     push to the next. A push at or after the run's last time joins it,
     and since its [seq] is larger than every earlier one the run stays
     sorted by (time, seq). A fixed-cadence arrival clock, armed all at
     once, lives here and costs O(1) per push and pop.
   - the heap, a binary min-heap for every other event: the messages
     and timers in flight.
   An event's fields sit at one index of a lane's five parallel arrays
   (its time unboxed in a float array), so scheduling and popping
   allocate nothing once the arrays have grown. A negative [src] marks a
   timer: a local alarm from [dst] to itself, outside the message
   metrics. *)
module Eq = struct
  type 'msg lane = {
    mutable ts : float array;
    mutable seq : int array;
    mutable src : int array;
    mutable dst : int array;
    mutable msgs : 'msg array;
  }

  type 'msg t = {
    h : 'msg lane; (* the heap's events, by slot *)
    mutable heap : int array;
        (* slot indices: the first [len] form the heap on (time, seq),
           the rest are the free slots, so [heap] is always a
           permutation of [0, capacity) *)
    mutable len : int;
    mutable peak : int; (* the largest [len] so far *)
    r : 'msg lane; (* the run, a ring: capacity a power of two *)
    mutable head : int; (* the run's earliest event *)
    mutable rlen : int;
  }

  let lane () = { ts = [||]; seq = [||]; src = [||]; dst = [||]; msgs = [||] }

  let create () =
    { h = lane (); heap = [||]; len = 0; peak = 0; r = lane (); head = 0;
      rlen = 0 }

  (* Double a lane by appending each array to itself. A full ring's
     events, [head] on, then sit in order at [head, head + capacity) of
     the doubled arrays; a heap's new slots are free, and their stale
     copies are overwritten before they are read. Appending also keeps
     [Array.make] off the messages: over 256 words, a fill of [msg], a
     young value, would force a minor collection at every growth. *)
  let double l msg =
    if Array.length l.ts = 0 then begin
      l.ts <- Array.make 16 0.0;
      l.seq <- Array.make 16 0;
      l.src <- Array.make 16 0;
      l.dst <- Array.make 16 0;
      l.msgs <- Array.make 16 msg
    end
    else begin
      l.ts <- Array.append l.ts l.ts;
      l.seq <- Array.append l.seq l.seq;
      l.src <- Array.append l.src l.src;
      l.dst <- Array.append l.dst l.dst;
      l.msgs <- Array.append l.msgs l.msgs
    end

  let[@inline] set l i ~t ~seq ~src ~dst msg =
    l.ts.(i) <- t;
    l.seq.(i) <- seq;
    l.src.(i) <- src;
    l.dst.(i) <- dst;
    l.msgs.(i) <- msg

  let lt h a b =
    let ta = h.ts.(a) and tb = h.ts.(b) in
    ta < tb || (ta = tb && h.seq.(a) < h.seq.(b))

  (* Only called when every slot is live: the new slots are all free. *)
  let grow q msg =
    let cap = Array.length q.heap in
    double q.h msg;
    q.heap <-
      Array.init (Array.length q.h.ts) (fun i -> if i < cap then q.heap.(i) else i)

  let[@inline] heap_push q ~t ~seq ~src ~dst msg =
    if q.len = Array.length q.heap then grow q msg;
    let s = q.heap.(q.len) in
    set q.h s ~t ~seq ~src ~dst msg;
    (* sift up: move the hole towards the root, then drop [s] in *)
    let i = ref q.len in
    q.len <- q.len + 1;
    if q.len > q.peak then q.peak <- q.len;
    while
      !i > 0
      &&
      let p = (!i - 1) / 2 in
      lt q.h s q.heap.(p)
    do
      let p = (!i - 1) / 2 in
      q.heap.(!i) <- q.heap.(p);
      i := p
    done;
    q.heap.(!i) <- s

  let[@inline] push q ~t ~seq ~src ~dst msg =
    let r = q.r in
    let mask = Array.length r.ts - 1 in
    if q.rlen = 0 || t >= r.ts.((q.head + q.rlen - 1) land mask) then begin
      if q.rlen = Array.length r.ts then double r msg;
      set r ((q.head + q.rlen) land (Array.length r.ts - 1)) ~t ~seq ~src ~dst msg;
      q.rlen <- q.rlen + 1
    end
    else heap_push q ~t ~seq ~src ~dst msg

  let is_empty q = q.len = 0 && q.rlen = 0

  (* Whether the earliest event is the run's head; the queue must be
     non-empty. *)
  let[@inline] run_first q =
    q.rlen > 0
    && (q.len = 0
       ||
       let r = q.head and s = q.heap.(0) in
       let tr = q.r.ts.(r) and th = q.h.ts.(s) in
       tr < th || (tr = th && q.r.seq.(r) < q.h.seq.(s)))

  (* Remove the run's head and return its index in [q.r]. The index
     stays readable until the next [push]. *)
  let[@inline] take q =
    let r = q.head in
    q.head <- (r + 1) land (Array.length q.r.ts - 1);
    q.rlen <- q.rlen - 1;
    r

  (* Remove the heap's earliest event and return its slot in [q.h]. The
     slot goes back to the free region, so the caller must read it
     before the next [push]. *)
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
            if l + 1 < len && lt q.h q.heap.(l + 1) q.heap.(l) then l + 1 else l
          in
          if lt q.h q.heap.(c) last then begin
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

(* [Random.State.float rng 1.0], bit for bit, without boxing the
   result: the stdlib's draw is a recursive function, so every call
   returns a fresh boxed float. *)
let[@inline] unit_float rng =
  let n = ref (Int64.shift_right_logical (Random.State.bits64 rng) 11) in
  while Int64.equal !n 0L do
    n := Int64.shift_right_logical (Random.State.bits64 rng) 11
  done;
  Int64.to_float !n *. 0x1.p-53

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
      let u = unit_float rng in
      Float.max 1e-6 (u *. max_delay)
    | Partially_synchronous { bound } ->
      let u = unit_float rng in
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
      else if !drop_prob > 0.0 && unit_float rng < !drop_prob then
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
  let from_run = ref false in
  while
    (not (Eq.is_empty queue))
    && (from_run := Eq.run_first queue;
        (if !from_run then queue.Eq.r.Eq.ts.(queue.Eq.head)
         else queue.Eq.h.Eq.ts.(queue.Eq.heap.(0)))
        <= config.max_time)
    && !events < config.max_events
  do
    let lane = if !from_run then queue.Eq.r else queue.Eq.h in
    let i = if !from_run then Eq.take queue else Eq.pop queue in
    (* read the event out before the handler's pushes can reuse it *)
    let src = lane.Eq.src.(i) and dst = lane.Eq.dst.(i) in
    let msg = lane.Eq.msgs.(i) in
    clock.now <- lane.Eq.ts.(i);
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
        heap_peak = queue.Eq.peak;
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
