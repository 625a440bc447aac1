(** The deterministic discrete-event message-passing simulator — the
    testbed substitute for paper Section 4.

    Distributed algorithms run as per-node state machines exchanging
    messages under a timing model, with seeded failure injection.
    Metrics cover messages, simulated time, {e and local computation per
    node} — the cost the paper notes is "rarely accounted for". Equal
    seeds give identical runs. *)

(** Timing models (taxonomy dimension 6). *)
type timing =
  | Synchronous  (** every message takes exactly one time unit *)
  | Asynchronous of { max_delay : float }  (** uniform (0, max_delay] *)
  | Partially_synchronous of { bound : float }
      (** uniform (0, bound], with the bound known *)

(** Failure models (taxonomy dimension 3). *)
type 'msg failure =
  | Crash of { node : int; at : float }  (** crash-stop at time [at] *)
  | Drop_links of { prob : float }
  | Byzantine of { node : int; corrupt : 'msg -> 'msg }
      (** the node's outgoing messages are corrupted *)
  | Partition of { groups : int list list; from_ : float; until : float }
      (** network partition active while [from_ <= now < until]: each
          listed group is an island, all unlisted nodes together form
          one implicit island, and messages sent across islands are
          dropped. Deterministic — no RNG draw — so configurations
          without partitions keep their exact event stream. *)

type 'msg config = {
  timing : timing;
  failures : 'msg failure list;
  seed : int;
  max_time : float;
  max_events : int;
}

val default_config : 'msg config
(** Synchronous, no failures, seed 42. *)

(** Per-node context with effect handles: [send] to a neighbour,
    [timer] a message back to this node after a chosen simulated delay
    (a local alarm clock: exempt from drops, corruption and partitions,
    draws no RNG, excluded from the message metrics, but dies with a
    crashed or halted node), [charge] local computation steps, [decide]
    the node's output, [halt] the node.

    A node's context is one value for the whole run: the engine builds
    it before [initial] and passes that same record to every
    [on_message], so a handler may keep it, or any of its closures
    ([now] always reads the current simulated time). *)
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

type metrics = {
  messages_sent : int;
  messages_delivered : int;
  messages_dropped : int;
  local_steps : int array;  (** per node *)
  sent_by : int array;
      (** per-node message sends — counted like [messages_sent] (before
          drop/partition filtering), timers excluded *)
  delivered_to : int array;
      (** per-node message deliveries, timers excluded *)
  finish_time : float;
  events : int;
  heap_peak : int;
      (** the most events the queue's heap held at once: the in-flight
          messages and timers *)
}

val total_local_steps : metrics -> int

type result = {
  decisions : string option array;
  halted : bool array;
  metrics : metrics;
}

val run :
  ?config:'m config -> Topology.t -> ('s, 'm) algorithm -> result
(** Simulate until quiescence or a safety horizon. Events pop in
    (time, scheduling order). An event later than [max_time], or past
    the first [max_events], is not delivered, not counted in [events]
    and does not move [finish_time]; the run stops there. Crashed and
    halted nodes neither send nor receive. *)

val pp_metrics : Format.formatter -> metrics -> unit
