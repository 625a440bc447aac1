(* Tests for gp_tracing: cross-node journey assembly under random
   failure injection (property-tested over the same drop/crash/partition
   grammar the CLI exposes), dump/load round-trips, Chrome lane export,
   and the tail-latency attribution arithmetic.

   The load-bearing property: every request the cluster COMPLETES
   assembles into a well-formed cross-node tree — single
   cluster.request root, every parent resolves, causal nesting — no
   matter which messages the failure plan dropped. Spans whose parent
   never closed (a dropped reply, an unanswered probe) must surface as
   orphans in aux traces, never silently attach to a root. *)

module Cluster = Gp_cluster.Cluster
module Node = Gp_cluster.Node
module Engine = Gp_distsim.Engine
module Journey = Gp_tracing.Journey
module Trace = Gp_telemetry.Trace
module Trace_set = Gp_tracing.Trace_set
module Attribution = Gp_tracing.Attribution
module Fleet = Gp_tracing.Fleet

let qtest = QCheck_alcotest.to_alcotest

let run ?(n = 30) ?(seed = 7) ?(replicas = 3) ?(failures = [])
    ?(trace = true) () =
  let reqs = Gp_service.Workload.generate ~seed ~n () |> Array.of_list in
  Cluster.run
    ~config:
      { Cluster.default_config with
        replicas; failures; seed; trace;
        max_time = 5000.0 }
    reqs

(* ------------------------------------------------------------------ *)
(* Random failure plans: the drop=/crash=/partition= grammar           *)
(* ------------------------------------------------------------------ *)

let failure_plan_gen replicas =
  let open QCheck.Gen in
  let drop = map (fun p -> Cluster.Drop p) (float_bound_inclusive 0.3) in
  let crash_replica =
    map2
      (fun r at ->
        Cluster.Crash_replica { replica = 1 + (r mod replicas); at })
      (int_bound (replicas - 1))
      (map float_of_int (int_range 5 80))
  in
  let crash_leader =
    map
      (fun at -> Cluster.Crash_leader { at })
      (map float_of_int (int_range 5 80))
  in
  let partition =
    map2
      (fun cut from_ ->
        let cut = 1 + (cut mod replicas) in
        let left = List.init cut (fun i -> i) in
        let right =
          List.init (replicas + 1 - cut) (fun i -> cut + i)
        in
        Cluster.Partition { groups = [ left; right ]; from_; until = from_ +. 25.0 })
      (int_bound (replicas - 1))
      (map float_of_int (int_range 5 60))
  in
  (* at most one crash, so some replica always remains *)
  oneof
    [ return [];
      map (fun d -> [ d ]) drop;
      map (fun c -> [ c ]) crash_leader;
      map (fun c -> [ c ]) crash_replica;
      map (fun p -> [ p ]) partition;
      map2 (fun d c -> [ d; c ]) drop crash_leader;
      map2 (fun d p -> [ d; p ]) drop partition ]

let pp_failure f =
  Fmt.str "%a"
    (fun ppf -> function
      | Cluster.Drop p -> Fmt.pf ppf "drop=%.2f" p
      | Cluster.Crash_replica { replica; at } ->
        Fmt.pf ppf "crash=%d@%g" replica at
      | Cluster.Crash_leader { at } -> Fmt.pf ppf "crash=leader@%g" at
      | Cluster.Partition { groups; from_; until } ->
        Fmt.pf ppf "partition=%a@%g-%g"
          Fmt.(list ~sep:(any "|") (list ~sep:(any "+") int))
          groups from_ until)
    f

let plan_arb replicas =
  QCheck.make
    ~print:(fun fs -> String.concat "," (List.map pp_failure fs))
    (failure_plan_gen replicas)

(* Completed requests assemble into well-formed trees; orphans only
   ever surface in traces of requests that never completed or in aux
   traces — and are never attached to a root. *)
let journeys_well_formed_prop =
  qtest
    (QCheck.Test.make ~name:"completed journeys well-formed under failures"
       ~count:30
       QCheck.(pair (plan_arb 3) (int_range 0 1000))
       (fun (failures, seed) ->
         let r = run ~failures ~seed () in
         let ts = Trace_set.of_result r in
         let js = Trace_set.journeys ts in
         List.for_all
           (fun (j : Journey.journey) ->
             let completed =
               Trace_set.is_request ts j.Journey.j_trace
               && j.Journey.j_trace < Array.length r.Cluster.r_records
               && r.Cluster.r_records.(j.Journey.j_trace) <> None
             in
             if completed then
               match Journey.well_formed j with
               | Ok () ->
                 Journey.root_name j = Some "cluster.request"
               | Error _ -> false
             else
               (* incomplete/aux: orphans stay orphans — every root's
                  subtree must contain only spans whose parents resolve
                  inside it (assemble guarantees this structurally);
                  check orphans are disjoint from the trees *)
               let rec ids (t : Journey.tree) =
                 t.Trace.t_span.Trace.sp_id
                 :: List.concat_map ids t.Trace.t_children
               in
               let tree_ids = List.concat_map ids j.Journey.j_roots in
               List.for_all
                 (fun (_, (sp : Trace.span)) ->
                   not (List.mem sp.Trace.sp_id tree_ids))
                 j.Journey.j_orphans)
           js))

(* Force the orphan path deterministically: drop enough messages that
   some serve/heartbeat span's parent never closes, and check the
   assembler surfaces orphans rather than inventing roots. *)
let test_orphans_surface () =
  let r =
    run ~n:60 ~seed:3
      ~failures:[ Cluster.Drop 0.35; Cluster.Crash_leader { at = 30.0 } ]
      ()
  in
  let ts = Trace_set.of_result r in
  let js = Trace_set.journeys ts in
  let orphans =
    List.concat_map (fun (j : Journey.journey) -> j.Journey.j_orphans) js
  in
  Alcotest.(check bool) "drops orphan some spans" true (orphans <> []);
  List.iter
    (fun (_, (sp : Trace.span)) ->
      Alcotest.(check bool) "orphan has an unresolved parent" true
        (sp.Trace.sp_parent <> None))
    orphans;
  (* and the validation still accepts the run: completed requests are
     unaffected by aux-trace orphans *)
  let v = Trace_set.validate ts in
  Alcotest.(check int) "no malformed request traces" 0
    (List.length v.Trace_set.v_malformed);
  Alcotest.(check bool) "aux orphans counted" true
    (v.Trace_set.v_aux_orphans > 0)

(* ------------------------------------------------------------------ *)
(* Dump / load                                                         *)
(* ------------------------------------------------------------------ *)

let dump_roundtrip_prop =
  qtest
    (QCheck.Test.make ~name:"dump/load round-trips byte-identically"
       ~count:15
       QCheck.(pair (plan_arb 3) (int_range 0 1000))
       (fun (failures, seed) ->
         let r = run ~failures ~seed () in
         let ts = Trace_set.of_result r in
         let doc = Trace_set.dump ts in
         match Trace_set.load doc with
         | Error _ -> false
         | Ok ts' ->
           String.equal doc (Trace_set.dump ts')
           && ts'.Trace_set.ts_n = ts.Trace_set.ts_n
           && ts'.Trace_set.ts_replicas = ts.Trace_set.ts_replicas
           (* journeys assemble identically from the reloaded set *)
           && List.length (Trace_set.journeys ts')
              = List.length (Trace_set.journeys ts)))

let test_load_rejects_garbage () =
  List.iter
    (fun (name, doc) ->
      Alcotest.(check bool) name true
        (match Trace_set.load doc with Error _ -> true | Ok _ -> false))
    ([ ("empty", "");
      ("not json", "hello\n");
      ("wrong header", "{\"foo\":1}\n");
      ( "bad ctx",
        "{\"gp_trace\":1,\"replicas\":1,\"n\":1,\"seed\":0,\"spans\":1}\n\
         {\"node\":0,\"ctx\":\"x\",\"parent\":0,\"name\":\"a\",\"start\":0.0,\
         \"dur\":1.0,\"attrs\":{}}\n" );
      ( "node out of range",
        "{\"gp_trace\":1,\"replicas\":1,\"n\":1,\"seed\":0,\"spans\":1}\n\
         {\"node\":9,\"ctx\":\"0/1\",\"parent\":0,\"name\":\"a\",\
         \"start\":0.0,\"dur\":1.0,\"attrs\":{}}\n" );
      ( "negative replicas",
        "{\"gp_trace\":1,\"replicas\":-3,\"n\":1,\"seed\":0,\"spans\":0}\n" );
      ( "replicas above the bound",
        "{\"gp_trace\":1,\"replicas\":1025,\"n\":1,\"seed\":0,\"spans\":0}\n" );
      ( "max_int replicas",
        "{\"gp_trace\":1,\"replicas\":4611686018427387903,\"n\":1,\
         \"seed\":1,\"spans\":0}\n" )
    ]
  @ List.map
      (fun ctx ->
        ( "overflowing ctx " ^ ctx,
          "{\"gp_trace\":1,\"replicas\":1,\"n\":1,\"seed\":0,\"spans\":1}\n\
           {\"node\":0,\"ctx\":\"" ^ ctx
          ^ "\",\"parent\":0,\"name\":\"a\",\"start\":0.0,\"dur\":1.0,\
             \"attrs\":{}}\n" ))
      [ "9223372036854775808/7"; "99999999999999999999/7" ])

(* A joiner's lane lies above the initial replicas: the dump of a traced
   elastic run loads again. *)
let test_elastic_dump_loads () =
  let reqs = Gp_service.Workload.generate ~seed:3 ~n:60 () |> Array.of_list in
  let r =
    Cluster.run
      ~config:
        { Cluster.default_config with
          replicas = 2; trace = true;
          elastic =
            [ { Gp_cluster.Node.el_at = 5.0; el_replica = 3; el_join = true } ]
        }
      reqs
  in
  let ts = Trace_set.of_result r in
  Alcotest.(check int) "the joiner's slot counts" 3 ts.Trace_set.ts_replicas;
  match Trace_set.load (Trace_set.dump ts) with
  | Ok ts' ->
    Alcotest.(check string) "round-trips" (Trace_set.dump ts)
      (Trace_set.dump ts')
  | Error e -> Alcotest.fail e

(* A rejection names its line in the document, blank lines counted. *)
let test_load_names_line () =
  let header =
    "{\"gp_trace\":1,\"replicas\":1,\"n\":1,\"seed\":0,\"spans\":2}\n"
  and span ctx =
    "{\"node\":0,\"ctx\":\"" ^ ctx
    ^ "\",\"parent\":0,\"name\":\"a\",\"start\":0.0,\"dur\":1.0,\
       \"attrs\":{}}\n"
  in
  let error doc =
    match Trace_set.load doc with Error e -> e | Ok _ -> "loaded"
  in
  Alcotest.(check string) "span line" "line 4: trace dump: bad ctx"
    (error (header ^ span "0/1" ^ "\n" ^ span "x"));
  Alcotest.(check string) "header line"
    "line 2: trace dump: replicas 1000000000 above 1024"
    (error
       ("\n{\"gp_trace\":1,\"replicas\":1000000000,\"n\":1,\"seed\":1,\
         \"spans\":0}\n"))

(* ------------------------------------------------------------------ *)
(* Attribution                                                         *)
(* ------------------------------------------------------------------ *)

(* Segments partition the root interval: queue + retry + stall +
   service = total (queue is defined as the clamped remainder), service
   comes from exactly the winning attempt, and every completed request
   is attributed. *)
let attribution_partition_prop =
  qtest
    (QCheck.Test.make ~name:"attribution partitions the root interval"
       ~count:15
       QCheck.(pair (plan_arb 3) (int_range 0 1000))
       (fun (failures, seed) ->
         let r = run ~failures ~seed () in
         let ts = Trace_set.of_result r in
         let sgs = Attribution.of_journeys (Trace_set.journeys ts) in
         List.length sgs = r.Cluster.r_completed
         && List.for_all
              (fun (sg : Attribution.segments) ->
                let parts =
                  sg.Attribution.sg_queue +. sg.Attribution.sg_retry
                  +. sg.Attribution.sg_stall +. sg.Attribution.sg_service
                in
                sg.Attribution.sg_total >= -.1e-9
                && sg.Attribution.sg_queue >= -.1e-9
                && Float.abs (parts -. sg.Attribution.sg_total)
                   <= 1e-6 *. Float.max 1.0 sg.Attribution.sg_total
                   +. 1e-6
                && sg.Attribution.sg_attempts >= 1)
              sgs))

let test_attribution_failover_names_causes () =
  let r =
    run ~n:60 ~seed:11
      ~failures:[ Cluster.Drop 0.2; Cluster.Crash_leader { at = 40.0 } ]
      ()
  in
  let ts = Trace_set.of_result r in
  let sgs = Attribution.of_journeys (Trace_set.journeys ts) in
  Alcotest.(check int) "every completed request attributed"
    r.Cluster.r_completed (List.length sgs);
  let su = Attribution.summarize sgs in
  Alcotest.(check bool) "retries dominate some tails" true
    (List.assoc Attribution.Retry su.Attribution.su_by_cause > 0);
  (* slowest-first ordering and determinism of the table *)
  let slow = Attribution.slowest ~k:5 sgs in
  let rec sorted = function
    | a :: (b :: _ as rest) ->
      a.Attribution.sg_total >= b.Attribution.sg_total && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "slowest first" true (sorted slow)

(* ------------------------------------------------------------------ *)
(* Fleet metrics                                                       *)
(* ------------------------------------------------------------------ *)

(* The fleet report is read off the run's own counts and records, so
   those must agree with what the traced run's spans show: one
   cluster.serve span per serve, one cluster.replicate per replicate,
   one retry-closed attempt per retry, and one cluster.attempt per
   dispatch once every request has completed (an attempt still open at
   the horizon has no span yet). Tracing changes nothing simulated, so
   the untraced run's report is the traced run's, byte for byte. *)
let fleet_accounting_prop =
  let n = 40 in
  let arb =
    QCheck.make
      ~print:(fun (replicas, fs, seed) ->
        Printf.sprintf "replicas=%d seed=%d failures=%s" replicas seed
          (String.concat "," (List.map pp_failure fs)))
      QCheck.Gen.(
        int_range 1 8 >>= fun replicas ->
        map2
          (fun fs seed -> (replicas, fs, seed))
          (failure_plan_gen replicas) (int_range 0 1000))
  in
  qtest
    (QCheck.Test.make
       ~name:"counts equal span counts; untraced report identical"
       ~count:25 arb
       (fun (replicas, failures, seed) ->
         let r = run ~n ~seed ~replicas ~failures () in
         let r_off = run ~n ~seed ~replicas ~failures ~trace:false () in
         let spans = List.concat_map snd r.Cluster.r_traces in
         let spans_named ?outcome name =
           List.length
             (List.filter
                (fun (sp : Trace.span) ->
                  sp.Trace.sp_name = name
                  && (outcome = None
                     || List.assoc_opt "outcome" sp.Trace.sp_attrs = outcome))
                spans)
         in
         let c = r.Cluster.r_counts in
         let sum = Array.fold_left ( + ) 0 in
         let em = r.Cluster.r_metrics in
         let report r = Fmt.str "%a" Fleet.pp_report r in
         let checks =
           [ ("serves = cluster.serve spans",
              c.Node.serves = spans_named "cluster.serve");
             ("replicates = cluster.replicate spans",
              c.Node.replicates = spans_named "cluster.replicate");
             ("retries = retry-closed attempts",
              c.Node.retries
              = spans_named ~outcome:"retry" "cluster.attempt");
             ("shard dispatches = rid dispatches",
              sum c.Node.dispatched_to
              = sum c.Node.rid_dispatches);
             ("rid dispatches = cluster.attempt spans when all completed",
              r.Cluster.r_completed < n
              || sum c.Node.rid_dispatches
                 = spans_named "cluster.attempt");
             ("one observation per completed request, percentiles ordered",
              match Fleet.request_percentiles r with
              | None -> r.Cluster.r_completed = 0
              | Some pc ->
                pc.Fleet.pc_count = r.Cluster.r_completed
                && pc.Fleet.pc_p50 <= pc.Fleet.pc_p90
                && pc.Fleet.pc_p90 <= pc.Fleet.pc_p99
                && pc.Fleet.pc_p99 <= pc.Fleet.pc_max +. 1e-9);
             ("sent_by sums to sent",
              em.Engine.messages_sent = sum em.Engine.sent_by);
             ("delivered_to sums to delivered",
              em.Engine.messages_delivered = sum em.Engine.delivered_to);
             ("untraced report = traced report",
              String.equal (report r_off) (report r)) ]
         in
         match List.filter (fun (_, ok) -> not ok) checks with
         | [] -> true
         | failed ->
           QCheck.Test.fail_reportf "failed: %s"
             (String.concat "; " (List.map fst failed))))

(* Shards print by ascending replica id, not as label strings: with 12
   replicas, 10..12 come after 9. *)
let test_shards_in_replica_order () =
  let r = run ~n:400 ~seed:42 ~replicas:12 ~trace:false () in
  let line =
    String.split_on_char '\n' (Fmt.str "%a" Fleet.pp_report r)
    |> List.find (String.starts_with ~prefix:"dispatches by shard:")
  in
  let ids =
    String.split_on_char ' ' line
    |> List.filter_map (fun w ->
           match String.index_opt w '=' with
           | Some i -> int_of_string_opt (String.sub w 0 i)
           | None -> None)
  in
  Alcotest.(check (list int)) "every replica, ascending"
    (List.init 12 (fun i -> i + 1))
    ids

let test_untraced_run_collects_nothing () =
  let reqs = Gp_service.Workload.generate ~seed:1 ~n:10 () |> Array.of_list in
  let r = Cluster.run reqs in
  Alcotest.(check bool) "no lanes" true (r.Cluster.r_traces = [])

(* ------------------------------------------------------------------ *)
(* Chrome lanes                                                        *)
(* ------------------------------------------------------------------ *)

let test_chrome_lane_structure () =
  let r = run ~n:20 ~seed:2 () in
  let ts = Trace_set.of_result r in
  match Mini_json.parse (Trace_set.to_chrome ts) with
  | exception Mini_json.Bad_json e ->
    Alcotest.failf "chrome export does not parse: %s" e
  | j ->
    let events =
      match Mini_json.member "traceEvents" j with
      | Some (Mini_json.Jlist l) -> l
      | _ -> Alcotest.fail "no traceEvents"
    in
    let metas, spans =
      List.partition
        (fun e -> Mini_json.member "ph" e = Some (Mini_json.Jstr "M"))
        events
    in
    Alcotest.(check int) "one process_name per node" 4 (List.length metas);
    let pid e =
      match Mini_json.member "pid" e with
      | Some (Mini_json.Jnum p) -> p
      | _ -> Alcotest.fail "event without pid"
    in
    let named = List.map pid metas in
    List.iter
      (fun e ->
        Alcotest.(check bool) "span pid is a named lane" true
          (List.mem (pid e) named))
      spans;
    (* the router lane (pid 1) holds the request roots *)
    Alcotest.(check bool) "router lane non-empty" true
      (List.exists (fun e -> pid e = 1.0) spans)

(* ------------------------------------------------------------------ *)
(* Span metrics: the families gp trace --metrics folds off the spans    *)
(* ------------------------------------------------------------------ *)

module Tel = Gp_telemetry.Tel
module Metrics = Gp_telemetry.Metrics
module Span_metrics = Gp_tracing.Span_metrics

let elect_runs k =
  let uids = Array.init 8 (fun i -> 8 - i) in
  List.init k (fun _ ->
      Gp_distsim.Algorithms.Lcr.run ~uids
        (Gp_distsim.Topology.ring_unidirectional 8))

(* A ring that overwrote spans would fold into short counts, so the fold
   refuses it; the same work in a ring that holds it folds whole. *)
let test_overflowed_ring_refused () =
  (match
     Tel.with_installed ~trace_capacity:4 (fun sink ->
         ignore (elect_runs 6);
         Span_metrics.of_trace sink.Tel.trace)
   with
  | Error e ->
    Alcotest.(check bool) "names the dropped spans" true
      (String.starts_with ~prefix:"the trace ring dropped 2 of 6 spans" e)
  | Ok _ -> Alcotest.fail "a fold over an overflowed ring was accepted");
  match
    Tel.with_installed ~trace_capacity:6 (fun sink ->
        ignore (elect_runs 6);
        Span_metrics.of_trace sink.Tel.trace)
  with
  | Ok m ->
    Alcotest.(check (float 0.0)) "every run counted" 6.0
      (Metrics.value m ~labels:[ ("algorithm", "LCR") ] "gp_distsim_runs_total")
  | Error e -> Alcotest.fail e

(* The folded families carry exactly the counts the libraries return:
   the election's engine metrics and the rewrite's step trace. *)
let test_families_equal_results () =
  let open Gp_simplicissimus in
  let reg = Gp_standard.Standard.registry () in
  let insts = Instances.standard reg in
  let e = Expr.Op ("+", "int", [ Expr.Var ("x", "int"); Expr.Lit (Expr.VInt 0) ]) in
  let rw, runs, m =
    Tel.with_installed (fun sink ->
        let rw = Engine.rewrite ~rules:Rules.standard ~insts e in
        let runs = elect_runs 2 in
        match Span_metrics.of_trace sink.Tel.trace with
        | Ok m -> (rw, runs, m)
        | Error e -> Alcotest.fail e)
  in
  let lcr = [ ("algorithm", "LCR") ] in
  let sum f =
    float_of_int (List.fold_left (fun a r -> a + f r.Gp_distsim.Engine.metrics) 0 runs)
  in
  let module E = Gp_distsim.Engine in
  List.iter
    (fun (family, v) ->
      Alcotest.(check (float 0.0)) family v (Metrics.value m ~labels:lcr family))
    [ ("gp_distsim_events_total", sum (fun x -> x.E.events));
      ("gp_distsim_messages_sent_total", sum (fun x -> x.E.messages_sent));
      ("gp_distsim_messages_delivered_total",
       sum (fun x -> x.E.messages_delivered));
      ("gp_distsim_messages_dropped_total", sum (fun x -> x.E.messages_dropped));
      ("gp_distsim_local_steps_total", sum E.total_local_steps) ];
  (match Metrics.find_histogram m ~labels:lcr "gp_distsim_finish_time" with
  | Some h ->
    Alcotest.(check (float 0.0)) "finish times, exactly"
      (List.fold_left (fun a r -> a +. r.E.metrics.E.finish_time) 0.0 runs)
      (Gp_telemetry.Histogram.sum h)
  | None -> Alcotest.fail "no finish-time histogram");
  Alcotest.(check bool) "the rewrite fired" true (rw.Engine.steps <> []);
  Alcotest.(check (float 0.0)) "one rewrite" 1.0
    (Metrics.value m "gp_engine_rewrites_total");
  Alcotest.(check (float 0.0)) "its steps"
    (float_of_int (List.length rw.Engine.steps))
    (Metrics.value m "gp_engine_steps_total");
  Alcotest.(check (float 0.0)) "rules fired per head"
    (float_of_int (List.length rw.Engine.steps))
    (Metrics.value m ~labels:[ ("head", "+") ] "gp_engine_rules_fired_total")

let () =
  Alcotest.run "gp_tracing"
    [
      ( "span fold",
        [
          Alcotest.test_case "overflowed ring refused" `Quick
            test_overflowed_ring_refused;
          Alcotest.test_case "families equal results" `Quick
            test_families_equal_results;
        ] );
      ( "journeys",
        [
          journeys_well_formed_prop;
          Alcotest.test_case "orphans surface, never re-rooted" `Quick
            test_orphans_surface;
        ] );
      ( "dump",
        [
          dump_roundtrip_prop;
          Alcotest.test_case "load rejects garbage" `Quick
            test_load_rejects_garbage;
          Alcotest.test_case "load errors name their line" `Quick
            test_load_names_line;
          Alcotest.test_case "elastic run's dump loads" `Quick
            test_elastic_dump_loads;
        ] );
      ( "attribution",
        [
          attribution_partition_prop;
          Alcotest.test_case "failover causes named" `Quick
            test_attribution_failover_names_causes;
        ] );
      ( "fleet",
        [
          fleet_accounting_prop;
          Alcotest.test_case "shards in replica order" `Quick
            test_shards_in_replica_order;
          Alcotest.test_case "untraced collects nothing" `Quick
            test_untraced_run_collects_nothing;
        ] );
      ( "chrome",
        [
          Alcotest.test_case "lane structure" `Quick
            test_chrome_lane_structure;
        ] );
    ]
