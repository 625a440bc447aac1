(** Causal trace context — the compact [(trace_id, parent_span_id)]
    pair carried on every cluster wire message so a receiver can parent
    its spans under the sender's span in another node's ring.

    The wire form is ["<trace>/<span>"]; rendering appends digits
    directly into a reused buffer and parsing runs a cursor over the
    line with no intermediate strings (the zero-allocation wire
    discipline of the s7 parse path). *)

type t = { tc_trace : int; tc_span : int }

val none : t
(** The empty context ([0/0]) — a single shared block, so carrying it on
    every message while tracing is disabled allocates nothing. *)

val v : trace:int -> span:int -> t

val is_none : t -> bool

val trace : t -> int
val span : t -> int

val render_into : Buffer.t -> t -> unit
(** Append the wire form; raises [Invalid_argument] on negative ids. *)

val to_string : t -> string

val parse_at : string -> pos:int -> (t * int) option
(** Cursor parse starting at [pos]: on success returns the context and
    the position one past its last digit. A digit run past [max_int] is
    rejected ([None]), never wrapped. *)

val of_string : string -> t option
(** [parse_at ~pos:0] requiring the whole string to be consumed. *)

val pp : Format.formatter -> t -> unit
