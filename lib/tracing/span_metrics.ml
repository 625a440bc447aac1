(* The metric families of a traced run, folded off its spans. Each
   instrumented library writes its counts as attributes of the one span
   it opens; this is the only place that knows which attribute feeds
   which family. Series are created as the fold first meets them, so a
   count of 0 that a span carries still shows as a sample. *)

module Trace = Gp_telemetry.Trace
module Metrics = Gp_telemetry.Metrics

let attr (sp : Trace.span) k = List.assoc k sp.Trace.sp_attrs
let num sp k = float_of_string (attr sp k)

(* Each library writes its counts once its work is done, so a span its
   work raised out of (a budget running out, a rewrite that did not
   terminate) carries none and counts nothing; a kernel counts once
   selected, before it runs. *)
let count_span m (sp : Trace.span) =
  let has k = List.mem_assoc k sp.Trace.sp_attrs in
  let inc ?labels name by = Metrics.inc m ?labels ~by name in
  let add ?labels name k = inc ?labels name (num sp k) in
  match sp.Trace.sp_name with
  | "concepts.check" when has "outcome" ->
    inc ~labels:[ ("outcome", attr sp "outcome") ] "gp_checks_total" 1.0;
    if attr sp "memo_hit" = "true" then inc "gp_check_memo_hits_total" 1.0;
    add "gp_check_failures_total" "failures";
    add "gp_check_warnings_total" "warnings"
  | "concepts.closure" when has "size" ->
    inc "gp_closure_calls_total" 1.0;
    add "gp_closure_worklist_pushes_total" "worklist_pushes";
    Metrics.observe m "gp_closure_size" (num sp "size")
  | "stllint.check" when has "symbolic_steps" ->
    inc "gp_lint_programs_total" 1.0;
    add "gp_lint_symbolic_steps_total" "symbolic_steps";
    List.iter
      (fun (severity, k) ->
        let n = num sp k in
        if n > 0.0 then
          inc ~labels:[ ("severity", severity) ] "gp_lint_diagnostics_total" n)
      [ ("error", "errors"); ("warning", "warnings");
        ("suggestion", "suggestions") ]
  | "simplicissimus.rewrite" when has "steps" ->
    inc "gp_engine_rewrites_total" 1.0;
    add "gp_engine_steps_total" "steps";
    add "gp_engine_guard_probes_total" "guard_probes";
    add "gp_engine_guard_memo_hits_total" "guard_hits";
    List.iter
      (fun head ->
        if head <> "" then
          inc ~labels:[ ("head", head) ] "gp_engine_rules_fired_total" 1.0)
      (String.split_on_char ' ' (attr sp "heads"))
  | "distsim.run" when has "events" ->
    let labels = [ ("algorithm", attr sp "algorithm") ] in
    inc ~labels "gp_distsim_runs_total" 1.0;
    add ~labels "gp_distsim_events_total" "events";
    add ~labels "gp_distsim_messages_sent_total" "messages_sent";
    add ~labels "gp_distsim_messages_delivered_total" "messages_delivered";
    add ~labels "gp_distsim_messages_dropped_total" "messages_dropped";
    add ~labels "gp_distsim_local_steps_total" "local_steps";
    Metrics.observe m ~labels "gp_distsim_finish_time" (num sp "finish_time")
  | "structla.detect" when has "structure" ->
    inc ~labels:[ ("structure", attr sp "structure") ]
      "gp_structla_detect_total" 1.0
  | ("structla.matvec" | "structla.matmul" | "structla.solve") when has "kernel"
    ->
    inc ~labels:[ ("kernel", attr sp "kernel") ] "gp_structla_kernel_total" 1.0
  | _ -> ()

let of_trace ?(index_rebuilds = 0) trace =
  let dropped = Trace.dropped trace in
  if dropped > 0 then
    Error
      (Printf.sprintf
         "the trace ring dropped %d of %d spans: the metric families would \
          be short"
         dropped (Trace.recorded trace))
  else begin
    let m = Metrics.create () in
    if index_rebuilds > 0 then
      Metrics.inc m ~by:(float_of_int index_rebuilds)
        "gp_registry_index_rebuilds_total";
    List.iter (count_span m) (Trace.spans trace);
    Ok m
  end
