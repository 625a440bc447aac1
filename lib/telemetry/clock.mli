(** Injectable time source: a function returning nanoseconds since an
    arbitrary origin. All of gp_telemetry reads time through one of
    these, so tracing stays deterministic under test. *)

type t = unit -> float
(** Nanoseconds since an arbitrary origin. *)

val wall : t
(** Wall-clock time via [Unix.gettimeofday], in ns. *)

val manual : ?start:float -> step:float -> unit -> t
(** A deterministic clock that advances by exactly [step] ns on every
    read, starting at [start] (default 0). The first read returns
    [start], the second [start +. step], and so on. *)
