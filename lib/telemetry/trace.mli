(** Span tracing: nested timed regions in a bounded in-memory ring
    buffer, exported as Chrome trace-event JSON ([chrome://tracing] /
    Perfetto). Single-threaded: parenthood is the open-span stack.

    Spans record at close; once [capacity] is exceeded the oldest spans
    are overwritten and counted in {!dropped}. *)

type span = {
  sp_id : int;  (** unique per trace, from 1 *)
  sp_parent : int option;
  sp_name : string;
  sp_start_ns : float;
  sp_dur_ns : float;
  sp_attrs : (string * string) list;
  sp_gc : Profile.counters option;
      (** GC/allocation delta over the span, when {!Profile} was enabled
          at open. Process-global counters: a parent's delta includes
          its children's. *)
}

type t

val create : ?capacity:int -> clock:Clock.t -> unit -> t
(** Default capacity 4096 spans. Raises [Invalid_argument] when
    [capacity < 1]. *)

val with_span :
  t -> name:string -> ?attrs:(unit -> (string * string) list) ->
  (unit -> 'a) -> 'a
(** Run the thunk inside a span. [attrs] is evaluated once, at close.
    If the thunk raises, the span is still recorded — tagged with
    [error=true] — and the exception propagates. A recorded span holds
    one value per attribute key: of [attrs], then {!add_attr}'s writes,
    then the error tag, the last write wins. *)

val add_attr : t -> string -> string -> unit
(** Attach an attribute to the innermost open span (no-op outside any
    span). Lets code record results computed mid-span. *)

val emit :
  t -> ?id:int -> ?parent:int -> name:string -> start_ns:float ->
  dur_ns:float -> ?attrs:(string * string) list -> unit -> int
(** Record an already-timed span directly, bypassing the open-span
    stack — for cross-event spans (the cluster's request/attempt spans
    stay open across many simulated deliveries) whose parent is chosen
    explicitly, e.g. from an inbound {!Context}. Returns the span id;
    when [id] is given it is used verbatim and the internal id counter
    is bumped past it. Repeated [attrs] keys keep their last value. *)

val spans : t -> span list
(** Retained (up to capacity) completed spans, oldest first. *)

val recorded : t -> int
(** Total spans ever recorded. *)

val dropped : t -> int
(** Spans overwritten by the ring bound. *)

val mark : t -> int
(** A cursor into the record stream; see {!since}. *)

val since : t -> int -> span list
(** Spans recorded after the given {!mark} and still retained, oldest
    first — the per-request capture used by the slow-request log. *)

val clear : t -> unit

val to_chrome_json_lanes :
  ?dropped:int -> (int * string * span list) list -> string
(** Chrome trace-event JSON over explicit process lanes:
    [(pid, process_name, spans)] per lane. Each lane opens with a
    [ph:"M"] [process_name] metadata event, then one complete
    ([ph:"X"]) event per span with that lane's [pid]; ts/dur are
    microseconds, rebased to the earliest span across {e all} lanes so
    cross-lane ordering survives. The cluster exporter maps one node
    per lane. *)

val to_chrome_json : t -> string
(** {!to_chrome_json_lanes} with the single lane [(1, "gp", spans t)]:
    one complete ([ph:"X"]) event per retained span, ts/dur in
    microseconds (ts rebased to the earliest retained span),
    span/parent ids and attrs in [args]. *)

(** {2 The span forest} *)

type 'a tree = {
  t_tag : 'a;  (** what the caller paired with the span *)
  t_span : span;
  t_children : 'a tree list;  (** ordered by {!compare_start} *)
}

val compare_start : span -> span -> int
(** Start time, then span id: the sibling order of {!forest}. *)

val forest : ('a * span) list -> 'a tree list
(** The window's spans as trees, each span once: the roots are the
    spans whose parent is absent from the window, in window order;
    children sort by {!compare_start}. Linear apart from the sibling
    sorts; spans on a parent cycle are left out. *)

val pp_dur : Format.formatter -> float -> unit
(** A duration in nanoseconds in the unit that suits it ([812ns],
    [3.4us], [1.25ms], [2.00s]); [-] for [nan] and [infinity]. *)

val pp_tree : Format.formatter -> span list -> unit
(** Render the {!forest} of the spans as an indented tree, with
    durations, GC deltas and attributes. *)

val folded : ?weight:[ `Dur | `Alloc ] -> span list -> string
(** Collapsed-stack ("folded") rendering of the {!forest} for flamegraph
    tooling: one [root;child;leaf weight] line per span, weighted by the
    span's {e self} cost — duration in ns by default, or allocated bytes
    with [`Alloc] (0 for spans recorded without profiling). *)

val to_folded : ?weight:[ `Dur | `Alloc ] -> t -> string
(** {!folded} over the retained spans. *)

val span_to_json : span -> string
(** One span as a JSON object ([id], [parent], [name], [start_ns],
    [dur_ns], [attrs], [gc]) — the representation flight-recorder
    dossiers embed. *)

val span_of_json : Json.t -> span
(** Inverse of {!span_to_json}: [parent] and [gc] may be [null] or
    absent, [attrs] absent. Raises {!Json.Error} naming the first
    malformed field. *)
