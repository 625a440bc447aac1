(** The global switchboard instrumented hot paths call through.

    Default state is OFF: every entry point is a single flag check, so
    instrumentation compiled into the engines is ~free until a sink is
    installed (bench s3 measures this). The process is single-threaded;
    one global sink serves the whole toolchain.

    The sink records spans only. A library's work counts travel as the
    attributes of its span (and in its result); a reader that wants
    them as metric families folds them off the span record
    ([Gp_tracing.Span_metrics]). *)

type sink = { trace : Trace.t }

val install : ?clock:Clock.t -> ?trace_capacity:int -> ?profile:bool -> unit -> sink
(** Create a sink, install it globally, enable every call site.
    [~profile:true] also enables {!Profile}, so every span carries a
    GC/allocation delta. *)

val is_enabled : unit -> bool

val with_installed :
  ?clock:Clock.t -> ?trace_capacity:int -> ?profile:bool -> (sink -> 'a) -> 'a
(** Install a fresh sink around the thunk, restoring the previous global
    state (including the {!Profile} flag) afterwards (exception-safe) —
    the test-suite idiom. *)

val with_span :
  name:string -> ?attrs:(unit -> (string * string) list) ->
  (unit -> 'a) -> 'a
(** {!Trace.with_span} on the installed sink; calls the thunk directly
    when disabled. [attrs] is only evaluated when enabled. *)

val attr : string -> string -> unit
(** {!Trace.add_attr} on the innermost open span; no-op when disabled.
    Guard argument computation with {!is_enabled} when it allocates. *)

val mark : unit -> int
val spans_since : int -> Trace.span list
(** Per-request span capture; [spans_since (mark ())] brackets. *)
