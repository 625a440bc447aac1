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
module Engine = Gp_distsim.Engine
module Journey = Gp_tracing.Journey
module Trace = Gp_telemetry.Trace
module Metrics = Gp_telemetry.Metrics
module Trace_set = Gp_tracing.Trace_set
module Attribution = Gp_tracing.Attribution
module Fleet = Gp_tracing.Fleet

let qtest = QCheck_alcotest.to_alcotest

let declare_standard = Gp_standard.Standard.declare

let run ?(n = 30) ?(seed = 7) ?(replicas = 3) ?(failures = []) () =
  let reqs = Gp_service.Workload.generate ~seed ~n () |> Array.of_list in
  Cluster.run
    ~config:
      { Cluster.default_config with
        replicas; failures; seed; trace = true;
        max_time = 5000.0 }
    ~declare_standard reqs

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
                 t.Journey.t_span.Trace.sp_id
                 :: List.concat_map ids t.Journey.t_children
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
        "{\"gp_trace\":1,\"replicas\":-3,\"n\":1,\"seed\":0,\"spans\":0}\n" )
    ]
  @ List.map
      (fun ctx ->
        ( "overflowing ctx " ^ ctx,
          "{\"gp_trace\":1,\"replicas\":1,\"n\":1,\"seed\":0,\"spans\":1}\n\
           {\"node\":0,\"ctx\":\"" ^ ctx
          ^ "\",\"parent\":0,\"name\":\"a\",\"start\":0.0,\"dur\":1.0,\
             \"attrs\":{}}\n" ))
      [ "9223372036854775808/7"; "99999999999999999999/7" ])

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

let test_fleet_merge_consistency () =
  let r = run ~n:50 ~seed:5 () in
  match Fleet.merged r with
  | None -> Alcotest.fail "traced run has no fleet metrics"
  | Some m ->
    (* the merged request-time histogram holds every completed request *)
    (match Fleet.request_percentiles m with
    | None -> Alcotest.fail "no request_time percentiles"
    | Some pc ->
      Alcotest.(check int) "one observation per completed request"
        r.Cluster.r_completed pc.Fleet.pc_count;
      Alcotest.(check bool) "percentiles ordered" true
        (pc.Fleet.pc_p50 <= pc.Fleet.pc_p90
        && pc.Fleet.pc_p90 <= pc.Fleet.pc_p99
        && pc.Fleet.pc_p99 <= pc.Fleet.pc_max +. 1e-9));
    (* merged totals equal the sum over the per-node registries *)
    let by_node name =
      List.fold_left
        (fun a (_, nm) -> a +. Metrics.total nm name)
        0.0 r.Cluster.r_node_metrics
    in
    List.iter
      (fun name ->
        Alcotest.(check (float 1e-9))
          (name ^ " merged = summed")
          (by_node name) (Metrics.total m name))
      [ "gp_cluster_serves_total"; "gp_cluster_retries_total";
        "gp_cluster_shard_dispatch_total"; "gp_cluster_key_dispatch_total";
        "gp_cluster_elections_total" ];
    (* per-node engine traffic: sends sum to the engine total *)
    let em = r.Cluster.r_metrics in
    Alcotest.(check int) "sent_by sums to sent" em.Engine.messages_sent
      (Array.fold_left ( + ) 0 em.Engine.sent_by);
    Alcotest.(check int) "delivered_to sums to delivered"
      em.Engine.messages_delivered
      (Array.fold_left ( + ) 0 em.Engine.delivered_to)

let test_untraced_run_collects_nothing () =
  let reqs = Gp_service.Workload.generate ~seed:1 ~n:10 () |> Array.of_list in
  let r = Cluster.run ~declare_standard reqs in
  Alcotest.(check bool) "no lanes" true (r.Cluster.r_traces = []);
  Alcotest.(check bool) "no registries" true (r.Cluster.r_node_metrics = []);
  Alcotest.(check bool) "fleet declines" true (Fleet.merged r = None)

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

let () =
  Alcotest.run "gp_tracing"
    [
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
        ] );
      ( "attribution",
        [
          attribution_partition_prop;
          Alcotest.test_case "failover causes named" `Quick
            test_attribution_failover_names_causes;
        ] );
      ( "fleet",
        [
          Alcotest.test_case "merge consistency" `Quick
            test_fleet_merge_consistency;
          Alcotest.test_case "untraced collects nothing" `Quick
            test_untraced_run_collects_nothing;
        ] );
      ( "chrome",
        [
          Alcotest.test_case "lane structure" `Quick
            test_chrome_lane_structure;
        ] );
    ]
