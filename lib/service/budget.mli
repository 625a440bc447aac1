(** Per-request execution budgets: an abstract step allowance plus a
    wall-clock deadline over an injectable clock.

    The dispatcher charges steps at stage boundaries, making over-budget
    behaviour deterministic; deadline checks piggyback on every charge,
    so tests exercise the timeout path with a fake clock instead of
    sleeping. *)

type why = Steps | Deadline

exception Exhausted of why
(** Caught by the server and turned into the structured [Over_budget] /
    [Timeout] error responses — never user-visible as an exception. *)

type t

val create : ?max_steps:int -> ?deadline:float -> now:(unit -> float) -> unit -> t
(** [deadline] is absolute, in [now]'s timescale. Default [max_steps] is
    unlimited. *)

val spend : t -> int -> unit
(** Charge [n] steps; raises {!Exhausted} when the allowance or the
    deadline is exceeded. *)

val check_deadline : t -> unit
val used : t -> int
val remaining : t -> int
