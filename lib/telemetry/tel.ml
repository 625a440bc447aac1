(* The global switchboard the instrumented hot paths call through.

   Default state is OFF: every entry point checks one [enabled] flag and
   returns immediately, so instrumentation compiled into the engines
   costs a branch (plus the caller's closure allocation for spans) when
   nobody is looking. Installing a sink turns every call site on at
   once; the clock is injectable, so an installed sink can still be
   fully deterministic under test. Bench s3 measures all three states.

   Single global, not a context parameter: threading a telemetry handle
   through Check/Propagate/Engine/Interp/distsim would put an
   observability concern in every signature of the toolchain. The
   process is single-threaded; tests install a sink around each
   property with [with_installed] (see test_telemetry). *)

type sink = {
  clock : Clock.t;
  trace : Trace.t;
  metrics : Metrics.t;
}

let enabled = ref false
let sink : sink option ref = ref None

let make_sink ?(clock = Clock.wall) ?(trace_capacity = 4096) () =
  { clock; trace = Trace.create ~capacity:trace_capacity ~clock ();
    metrics = Metrics.create () }

let install ?clock ?trace_capacity ?(profile = false) () =
  let s = make_sink ?clock ?trace_capacity () in
  sink := Some s;
  enabled := true;
  if profile then Profile.enable ();
  s

let is_enabled () = !enabled
let current () = if !enabled then !sink else None

let with_installed ?clock ?trace_capacity ?profile f =
  let saved_enabled = !enabled
  and saved_sink = !sink
  and saved_profile = Profile.is_enabled () in
  let s = install ?clock ?trace_capacity ?profile () in
  Fun.protect
    ~finally:(fun () ->
      enabled := saved_enabled;
      sink := saved_sink;
      if saved_profile then Profile.enable () else Profile.disable ())
    (fun () -> f s)

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

let with_span ~name ?attrs f =
  if not !enabled then f ()
  else
    match !sink with
    | None -> f ()
    | Some s -> Trace.with_span s.trace ~name ?attrs f

let attr key v =
  if !enabled then
    match !sink with None -> () | Some s -> Trace.add_attr s.trace key v

let mark () =
  if not !enabled then 0
  else match !sink with None -> 0 | Some s -> Trace.mark s.trace

let spans_since m =
  if not !enabled then []
  else match !sink with None -> [] | Some s -> Trace.since s.trace m

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let count ?labels name n =
  if !enabled then
    match !sink with
    | None -> ()
    | Some s -> Metrics.inc s.metrics ?labels ~by:(float_of_int n) name

let gauge ?labels name v =
  if !enabled then
    match !sink with None -> () | Some s -> Metrics.set s.metrics ?labels name v

let observe ?labels name v =
  if !enabled then
    match !sink with
    | None -> ()
    | Some s -> Metrics.observe s.metrics ?labels name v
