(* The global switchboard the instrumented hot paths call through.

   Default state is OFF: every entry point checks whether a sink is
   installed and returns immediately, so instrumentation compiled into the engines
   costs a branch (plus the caller's closure allocation for spans) when
   nobody is looking. Installing a sink turns every call site on at
   once; the clock is injectable, so an installed sink can still be
   fully deterministic under test. Bench s3 measures all three states.

   Single global, not a context parameter: threading a telemetry handle
   through Check/Propagate/Engine/Interp/distsim would put an
   observability concern in every signature of the toolchain. The
   process is single-threaded; tests install a sink around each
   property with [with_installed] (see test_telemetry).

   Spans only: one record of what the toolchain did. Counts ride on
   the spans as attributes, built only when a sink is installed, and
   gp trace --metrics folds them into metric families afterwards
   (Gp_tracing.Span_metrics) — no label-keyed registry update on the
   traced path. *)

type sink = { trace : Trace.t }

let sink : sink option ref = ref None

let install ?(clock = Clock.wall) ?(trace_capacity = 4096) ?(profile = false)
    () =
  let s = { trace = Trace.create ~capacity:trace_capacity ~clock () } in
  sink := Some s;
  if profile then Profile.enable ();
  s

let is_enabled () = match !sink with Some _ -> true | None -> false

let with_installed ?clock ?trace_capacity ?profile f =
  let saved_sink = !sink and saved_profile = Profile.is_enabled () in
  let s = install ?clock ?trace_capacity ?profile () in
  Fun.protect
    ~finally:(fun () ->
      sink := saved_sink;
      if saved_profile then Profile.enable () else Profile.disable ())
    (fun () -> f s)

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

let with_span ~name ?attrs f =
  match !sink with
  | None -> f ()
  | Some s -> Trace.with_span s.trace ~name ?attrs f

let attr key v =
  match !sink with None -> () | Some s -> Trace.add_attr s.trace key v

let mark () = match !sink with None -> 0 | Some s -> Trace.mark s.trace

let spans_since m =
  match !sink with None -> [] | Some s -> Trace.since s.trace m
