(* Tests for the distributed-systems simulator: topology invariants,
   engine determinism, every algorithm's correctness under sync and async
   timing, failure injection, asymptotic message-count bounds, and the
   seven-dimension taxonomy queries. *)

open Gp_distsim

let qtest = QCheck_alcotest.to_alcotest

let permutation ~seed n =
  let st = Random.State.make [| seed |] in
  let a = Array.init n (fun i -> i + 1) in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let async = Engine.Asynchronous { max_delay = 3.0 }
let config ?(timing = Engine.Synchronous) ?(failures = []) ?(seed = 7) () =
  { Engine.default_config with Engine.timing; failures; seed }

(* ------------------------------------------------------------------ *)
(* Topologies                                                          *)
(* ------------------------------------------------------------------ *)

let test_topologies () =
  let ring = Topology.ring 6 in
  Alcotest.(check int) "ring degree" 2 (Topology.degree ring 3);
  Alcotest.(check int) "ring diameter" 3 (Topology.diameter ring);
  let comp = Topology.complete 5 in
  Alcotest.(check int) "complete edges" 20 (Topology.num_edges comp);
  Alcotest.(check int) "complete diameter" 1 (Topology.diameter comp);
  let star = Topology.star 7 in
  Alcotest.(check int) "star hub degree" 6 (Topology.degree star 0);
  Alcotest.(check int) "star diameter" 2 (Topology.diameter star);
  let grid = Topology.grid 3 4 in
  Alcotest.(check int) "grid nodes" 12 (Topology.num_nodes grid);
  Alcotest.(check int) "grid corner degree" 2 (Topology.degree grid 0);
  Alcotest.(check int) "grid diameter" 5 (Topology.diameter grid);
  let line = Topology.line 5 in
  Alcotest.(check int) "line diameter" 4 (Topology.diameter line)

let test_random_topology_connected () =
  let t = Topology.random ~seed:3 ~p:0.1 20 in
  Alcotest.(check bool) "diameter finite => connected" true
    (Topology.diameter t > 0)

(* BFS reach from node 0 — diameter ignores unreachable pairs, so this
   is the real connectivity check. *)
let reaches_all t =
  let n = Topology.num_nodes t in
  let seen = Array.make n false in
  let q = Queue.create () in
  seen.(0) <- true;
  Queue.add 0 q;
  let count = ref 1 in
  while not (Queue.is_empty q) do
    List.iter
      (fun v ->
        if not seen.(v) then begin
          seen.(v) <- true;
          incr count;
          Queue.add v q
        end)
      (Topology.neighbors t (Queue.pop q))
  done;
  !count = n

let random_topo_connected_prop =
  qtest
    (QCheck.Test.make ~name:"random topology: connected for any (n, seed, p)"
       ~count:80
       QCheck.(triple (Bounded.int_range 2 40) (int_range 0 10_000) (int_range 0 50))
       (fun (n, seed, pc) ->
         reaches_all (Topology.random ~seed ~p:(float_of_int pc /. 100.0) n)))

let random_topo_deterministic_prop =
  qtest
    (QCheck.Test.make ~name:"random topology: same seed, same graph"
       ~count:60
       QCheck.(triple (Bounded.int_range 2 40) (int_range 0 10_000) (int_range 0 50))
       (fun (n, seed, pc) ->
         let p = float_of_int pc /. 100.0 in
         let a = Topology.random ~seed ~p n in
         let b = Topology.random ~seed ~p n in
         List.init n (fun i -> Topology.neighbors a i)
         = List.init n (fun i -> Topology.neighbors b i)))

(* The construction is a connecting line plus Bin(C(n,2) - (n-1), p)
   extra undirected edges, so the realized degree mass must sit within
   five standard deviations of that — and adjacency must be symmetric. *)
let random_topo_degree_prop =
  qtest
    (QCheck.Test.make ~name:"random topology: expected degree and symmetry"
       ~count:60
       QCheck.(triple (Bounded.int_range 10 60) (int_range 0 10_000) (int_range 0 50))
       (fun (n, seed, pc) ->
         let p = float_of_int pc /. 100.0 in
         let t = Topology.random ~seed ~p n in
         let symmetric =
           List.for_all
             (fun i ->
               List.for_all
                 (fun j -> List.mem i (Topology.neighbors t j))
                 (Topology.neighbors t i))
             (List.init n (fun i -> i))
         in
         let undirected = Topology.num_edges t / 2 in
         let extra = float_of_int (undirected - (n - 1)) in
         let m' = float_of_int ((n * (n - 1) / 2) - (n - 1)) in
         let mean = p *. m' in
         let sd = sqrt (m' *. p *. (1.0 -. p)) in
         symmetric
         && Topology.num_edges t mod 2 = 0
         && Float.abs (extra -. mean) <= (5.0 *. sd) +. 2.0))

let test_tree_topology () =
  let t = Topology.binary_tree 7 in
  Alcotest.(check (list int)) "root children" [ 1; 2 ] (Topology.neighbors t 0);
  Alcotest.(check (list int)) "inner node" [ 0; 3; 4 ] (Topology.neighbors t 1)

(* ------------------------------------------------------------------ *)
(* Engine basics                                                       *)
(* ------------------------------------------------------------------ *)

let test_determinism () =
  let topo = Topology.ring 9 in
  let uids = permutation ~seed:11 9 in
  let run () = Algorithms.Lcr.run ~config:(config ~timing:async ()) ~uids topo in
  let r1 = run () and r2 = run () in
  Alcotest.(check int) "same message count"
    r1.Engine.metrics.Engine.messages_sent r2.Engine.metrics.Engine.messages_sent;
  Alcotest.(check bool) "same decisions" true
    (r1.Engine.decisions = r2.Engine.decisions);
  (* a different seed may deliver in a different order but elects the same
     leader *)
  let r3 =
    Algorithms.Lcr.run ~config:(config ~timing:async ~seed:99 ()) ~uids topo
  in
  Alcotest.(check bool) "same leader under different schedule" true
    (Algorithms.agreed r1 = Algorithms.agreed r3)

(* ------------------------------------------------------------------ *)
(* LCR                                                                 *)
(* ------------------------------------------------------------------ *)

let test_lcr_elects_max () =
  let n = 10 in
  let topo = Topology.ring_unidirectional n in
  let uids = permutation ~seed:5 n in
  let r = Algorithms.Lcr.run ~config:(config ()) ~uids topo in
  Alcotest.(check (option string)) "max uid elected" (Some (string_of_int n))
    (Algorithms.agreed r);
  Alcotest.(check bool) "everyone decided" true (Algorithms.all_decided r)

let lcr_prop =
  qtest
    (QCheck.Test.make ~name:"LCR elects the max uid (async, any seed)"
       ~count:60
       QCheck.(pair (Bounded.int_range 3 25) (int_range 0 10_000))
       (fun (n, seed) ->
         let topo = Topology.ring_unidirectional n in
         let uids = permutation ~seed n in
         let r =
           Algorithms.Lcr.run ~config:(config ~timing:async ~seed ()) ~uids topo
         in
         Algorithms.agreed r = Some (string_of_int n)))

(* Telemetry transparency: a simulation produces identical decisions and
   metrics — same RNG stream, same event order — with a sink installed
   (spans + per-algorithm counters recorded) as without. *)
let telemetry_transparent_prop =
  qtest
    (QCheck.Test.make ~name:"telemetry never changes simulation results"
       ~count:50
       QCheck.(pair (Bounded.int_range 3 15) (int_range 0 10_000))
       (fun (n, seed) ->
         let topo = Topology.ring_unidirectional n in
         let uids = permutation ~seed n in
         let run () =
           Algorithms.Lcr.run ~config:(config ~timing:async ~seed ()) ~uids topo
         in
         let off = run () in
         let on = Gp_telemetry.Tel.with_installed (fun _sink -> run ()) in
         off = on))

(* Worst case for LCR: uids decreasing along the send direction gives the
   Theta(n^2) message bound. *)
let test_lcr_message_bounds () =
  let n = 24 in
  let topo = Topology.ring_unidirectional n in
  let worst = Array.init n (fun i -> n - i) in
  let r = Algorithms.Lcr.run ~config:(config ()) ~uids:worst topo in
  let sent = r.Engine.metrics.Engine.messages_sent in
  (* sum of token travels = n + n-1 + ... + 1 plus n leader messages *)
  Alcotest.(check bool)
    (Printf.sprintf "worst case quadratic (%d msgs)" sent)
    true
    (sent >= n * (n + 1) / 2);
  let best = Array.init n (fun i -> i + 1) in
  let r2 = Algorithms.Lcr.run ~config:(config ()) ~uids:best topo in
  Alcotest.(check bool) "best case linear-ish" true
    (r2.Engine.metrics.Engine.messages_sent <= 3 * n)

(* ------------------------------------------------------------------ *)
(* HS                                                                  *)
(* ------------------------------------------------------------------ *)

let hs_prop =
  qtest
    (QCheck.Test.make ~name:"HS elects the max uid" ~count:50
       QCheck.(pair (Bounded.int_range 3 20) (int_range 0 10_000))
       (fun (n, seed) ->
         let topo = Topology.ring n in
         let uids = permutation ~seed n in
         let r =
           Algorithms.Hs.run ~config:(config ~timing:async ~seed ()) ~uids topo
         in
         Algorithms.agreed r = Some (string_of_int n)))

(* HS uses O(n log n) messages even on the LCR-worst-case ordering. *)
let test_hs_beats_lcr_on_messages () =
  let n = 64 in
  let worst = Array.init n (fun i -> n - i) in
  let lcr =
    Algorithms.Lcr.run ~config:(config ())
      ~uids:worst (Topology.ring_unidirectional n)
  in
  let hs = Algorithms.Hs.run ~config:(config ()) ~uids:worst (Topology.ring n) in
  let lcr_msgs = lcr.Engine.metrics.Engine.messages_sent in
  let hs_msgs = hs.Engine.metrics.Engine.messages_sent in
  Alcotest.(check bool)
    (Printf.sprintf "HS (%d) < LCR (%d) at n=%d" hs_msgs lcr_msgs n)
    true (hs_msgs < lcr_msgs);
  (* and within the analytic bound ~ 8 n (log n + 1) *)
  let bound =
    int_of_float (8.0 *. float_of_int n *. (Float.log2 (float_of_int n) +. 1.0))
  in
  Alcotest.(check bool) "HS within O(n log n) bound" true (hs_msgs <= bound)

(* ------------------------------------------------------------------ *)
(* Broadcast / echo / BFS / Bellman-Ford                               *)
(* ------------------------------------------------------------------ *)

let test_flooding_informs_all () =
  let topo = Topology.random ~seed:4 ~p:0.15 25 in
  let r = Algorithms.Flood.run ~config:(config ~timing:async ()) ~root:0 ~value:77 topo in
  Alcotest.(check (option string)) "all decided payload" (Some "77")
    (Algorithms.agreed r);
  (* message bound: at most one send per directed edge plus root's burst *)
  Alcotest.(check bool) "O(m) messages" true
    (r.Engine.metrics.Engine.messages_sent <= Topology.num_edges topo + 1)

let test_echo_counts_nodes () =
  List.iter
    (fun topo ->
      let r = Algorithms.Echo.run ~config:(config ~timing:async ()) ~root:0 topo in
      Alcotest.(check (option string))
        (Topology.num_nodes topo |> Printf.sprintf "echo count on %d nodes")
        (Some (string_of_int (Topology.num_nodes topo)))
        r.Engine.decisions.(0))
    [ Topology.ring 8; Topology.grid 4 5; Topology.random ~seed:9 ~p:0.2 30;
      Topology.binary_tree 15 ]

let test_bfs_tree_distances () =
  let topo = Topology.grid 3 3 in
  let r = Algorithms.Bfs_tree.run ~config:(config ()) ~root:0 topo in
  (* manhattan distances from corner 0 in a 3x3 grid *)
  let expected = [| 0; 1; 2; 1; 2; 3; 2; 3; 4 |] in
  Array.iteri
    (fun i d ->
      Alcotest.(check (option string))
        (Printf.sprintf "node %d" i)
        (Some (string_of_int d))
        r.Engine.decisions.(i))
    expected

let bellman_ford_prop =
  qtest
    (QCheck.Test.make ~name:"async Bellman-Ford = BFS distances" ~count:40
       QCheck.(pair (Bounded.int_range 5 20) (int_range 0 1000))
       (fun (n, seed) ->
         let topo = Topology.random ~seed ~p:0.15 n in
         let sync_r = Algorithms.Bfs_tree.run ~config:(config ()) ~root:0 topo in
         let async_r =
           Algorithms.Bellman_ford.run
             ~config:(config ~timing:async ~seed ())
             ~root:0 topo
         in
         sync_r.Engine.decisions = async_r.Engine.decisions))

(* ------------------------------------------------------------------ *)
(* Token ring & FloodMax (extensions)                                  *)
(* ------------------------------------------------------------------ *)

let test_token_ring_entries () =
  let n = 9 and entries = 4 in
  let topo = Topology.ring_unidirectional n in
  let r = Algorithms.Token_ring.run ~config:(config ()) ~entries topo in
  Alcotest.(check (option string)) "everyone entered exactly `entries` times"
    (Some (string_of_int entries))
    (Algorithms.agreed r);
  Alcotest.(check int) "messages = entries * n" (entries * n)
    r.Engine.metrics.Engine.messages_sent

let token_ring_prop =
  qtest
    (QCheck.Test.make ~name:"token ring: mutual exclusion bound holds"
       ~count:40
       QCheck.(pair (Bounded.int_range 2 20) (Bounded.int_range 1 6))
       (fun (n, entries) ->
         let topo = Topology.ring_unidirectional n in
         let r =
           Algorithms.Token_ring.run
             ~config:(config ~timing:async ())
             ~entries topo
         in
         Algorithms.agreed r = Some (string_of_int entries)
         && r.Engine.metrics.Engine.messages_sent = entries * n))

let floodmax_prop =
  qtest
    (QCheck.Test.make ~name:"FloodMax elects the max on arbitrary graphs"
       ~count:40
       QCheck.(pair (Bounded.int_range 2 20) (int_range 0 1000))
       (fun (n, seed) ->
         let topo = Topology.random ~seed ~p:0.2 n in
         let uids = permutation ~seed:(seed + 1) n in
         let r =
           Algorithms.Floodmax.run ~config:(config ~timing:async ~seed ())
             ~uids topo
         in
         Algorithms.agreed r = Some (string_of_int n)))

let test_partially_synchronous () =
  let topo = Topology.ring_unidirectional 8 in
  let uids = permutation ~seed:2 8 in
  let config =
    { Engine.default_config with
      Engine.timing = Engine.Partially_synchronous { bound = 2.0 } }
  in
  let r = Algorithms.Lcr.run ~config ~uids topo in
  Alcotest.(check (option string)) "leader elected under bounded delay"
    (Some "8") (Algorithms.agreed r);
  Alcotest.(check bool) "finish time respects the bound" true
    (r.Engine.metrics.Engine.finish_time
    <= 2.0 *. float_of_int r.Engine.metrics.Engine.messages_delivered)

(* ------------------------------------------------------------------ *)
(* Failures                                                            *)
(* ------------------------------------------------------------------ *)

let test_crash_partitions_broadcast () =
  (* crash the middle of a line before it can forward: nodes beyond stay
     uninformed *)
  let topo = Topology.line 7 in
  let r =
    Algorithms.Flood.run
      ~config:
        (config ~failures:[ Engine.Crash { node = 3; at = 0.5 } ] ())
      ~root:0 ~value:5 topo
  in
  Alcotest.(check bool) "node beyond crash uninformed" true
    (r.Engine.decisions.(6) = None);
  Alcotest.(check bool) "node before crash informed" true
    (r.Engine.decisions.(2) = Some "5")

let test_drop_all_links () =
  let topo = Topology.ring 6 in
  let r =
    Algorithms.Flood.run
      ~config:(config ~failures:[ Engine.Drop_links { prob = 1.0 } ] ())
      ~root:0 ~value:9 topo
  in
  Alcotest.(check int) "all dropped"
    r.Engine.metrics.Engine.messages_sent
    r.Engine.metrics.Engine.messages_dropped;
  Alcotest.(check bool) "only root decided" true
    (r.Engine.decisions.(1) = None && r.Engine.decisions.(0) = Some "9")

let test_byzantine_corruption () =
  (* a byzantine hub corrupts the payload: leaves disagree with the root *)
  let topo = Topology.star 5 in
  let r =
    Algorithms.Flood.run
      ~config:
        (config
           ~failures:
             [ Engine.Byzantine
                 { node = 0;
                   corrupt = (fun (Algorithms.Flood.Payload _) ->
                     Algorithms.Flood.Payload 666) } ]
           ())
      ~root:0 ~value:1 topo
  in
  Alcotest.(check bool) "no agreement" true (Algorithms.agreed r = None);
  Alcotest.(check (option string)) "leaf got corrupted value" (Some "666")
    r.Engine.decisions.(1)

(* ------------------------------------------------------------------ *)
(* Golden event streams                                                *)
(* ------------------------------------------------------------------ *)

(* Metrics pinned from the engine BEFORE the Partition/timer extension:
   configurations that use neither must keep byte-identical event and
   RNG streams. If one of these moves, the extension has perturbed
   existing simulations — a regression, not a test to update. *)
let check_metrics name (r : Engine.result) ~sent ~delivered ~dropped ~events
    ~finish ~local =
  let m = r.Engine.metrics in
  Alcotest.(check int) (name ^ " sent") sent m.Engine.messages_sent;
  Alcotest.(check int) (name ^ " delivered") delivered
    m.Engine.messages_delivered;
  Alcotest.(check int) (name ^ " dropped") dropped m.Engine.messages_dropped;
  Alcotest.(check int) (name ^ " events") events m.Engine.events;
  Alcotest.(check int) (name ^ " local steps") local
    (Engine.total_local_steps m);
  Alcotest.(check bool)
    (Printf.sprintf "%s finish %.15f = %.15f" name m.Engine.finish_time
       finish)
    true
    (Float.abs (m.Engine.finish_time -. finish) < 1e-9)

let test_golden_streams () =
  let n = 9 in
  let r =
    Algorithms.Lcr.run
      ~config:
        (config ~timing:async
           ~failures:[ Engine.Drop_links { prob = 0.1 } ]
           ())
      ~uids:(Array.init n (fun i -> n - i))
      (Topology.ring_unidirectional n)
  in
  check_metrics "lcr-async-drop-seed7" r ~sent:32 ~delivered:28 ~dropped:4
    ~events:28 ~finish:12.178634918577517 ~local:28;
  Alcotest.(check bool) "lcr: drops starve the election" true
    (Array.for_all Option.is_none r.Engine.decisions);
  let n = 8 in
  let r =
    Algorithms.Hs.run
      ~config:(config ~timing:async ~seed:42 ())
      ~uids:(Array.init n (fun i -> n - i))
      (Topology.ring n)
  in
  check_metrics "hs-async-seed42" r ~sent:72 ~delivered:72 ~dropped:0
    ~events:72 ~finish:43.370576099971537 ~local:44;
  Alcotest.(check (option string)) "hs agreement" (Some "8")
    (Algorithms.agreed r);
  let r =
    Algorithms.Flood.run
      ~config:(config ~failures:[ Engine.Crash { node = 3; at = 0.5 } ] ())
      ~root:0 ~value:5 (Topology.line 7)
  in
  check_metrics "flood-crash" r ~sent:3 ~delivered:2 ~dropped:0 ~events:3
    ~finish:3.0 ~local:2

(* ------------------------------------------------------------------ *)
(* Partitions                                                          *)
(* ------------------------------------------------------------------ *)

let test_partition_isolates () =
  (* islands {0,1,2} and (implicitly) {3,4,5}: a complete-graph flood
     from 0 informs only its island while the partition lasts *)
  let topo = Topology.complete 6 in
  let r =
    Algorithms.Flood.run
      ~config:
        (config
           ~failures:
             [ Engine.Partition
                 { groups = [ [ 0; 1; 2 ] ]; from_ = 0.0; until = 1e9 } ]
           ())
      ~root:0 ~value:3 topo
  in
  List.iter
    (fun i ->
      Alcotest.(check (option string))
        (Printf.sprintf "island node %d informed" i)
        (Some "3") r.Engine.decisions.(i))
    [ 0; 1; 2 ];
  List.iter
    (fun i ->
      Alcotest.(check (option string))
        (Printf.sprintf "cut-off node %d uninformed" i)
        None r.Engine.decisions.(i))
    [ 3; 4; 5 ];
  Alcotest.(check bool) "cross-island messages count as dropped" true
    (r.Engine.metrics.Engine.messages_dropped > 0)

let test_partition_outside_window_is_transparent () =
  (* a partition whose window never overlaps the run must leave an
     async simulation byte-identical: the partition check draws no RNG *)
  let topo = Topology.ring_unidirectional 9 in
  let uids = permutation ~seed:11 9 in
  let plain =
    Algorithms.Lcr.run ~config:(config ~timing:async ()) ~uids topo
  in
  let windowed =
    Algorithms.Lcr.run
      ~config:
        (config ~timing:async
           ~failures:
             [ Engine.Partition
                 { groups = [ [ 0; 1 ] ]; from_ = 1e8; until = 2e8 } ]
           ())
      ~uids topo
  in
  Alcotest.(check bool) "identical result (decisions, halted, metrics)" true
    (plain = windowed)

let test_partition_heals () =
  (* the window closes before the flood starts flowing again: a message
     sent after [until] crosses freely *)
  let topo = Topology.line 3 in
  let algo =
    {
      Engine.algo_name = "late-send";
      initial =
        (fun ctx ->
          if ctx.Engine.self = 0 then ctx.Engine.timer ~delay:5.0 `Go);
      on_message =
        (fun ctx () ~src:_ -> function
          | `Go -> ctx.Engine.send 1 `Hello
          | `Hello -> ctx.Engine.decide "heard");
    }
  in
  let r =
    Engine.run
      ~config:
        (config
           ~failures:
             [ Engine.Partition
                 { groups = [ [ 0 ] ]; from_ = 0.0; until = 4.0 } ]
           ())
      topo algo
  in
  Alcotest.(check (option string)) "post-partition delivery" (Some "heard")
    r.Engine.decisions.(1)

(* ------------------------------------------------------------------ *)
(* Timers                                                              *)
(* ------------------------------------------------------------------ *)

let tick_algo ~decide_at =
  {
    Engine.algo_name = "tick";
    initial =
      (fun ctx ->
        if ctx.Engine.self = 0 then ctx.Engine.timer ~delay:1.5 (`Tick 1));
    on_message =
      (fun ctx () ~src:_ (`Tick k) ->
        if k < decide_at then ctx.Engine.timer ~delay:2.0 (`Tick (k + 1))
        else begin
          ctx.Engine.decide (string_of_int k);
          ctx.Engine.halt ()
        end);
  }

let test_timer_local_alarm () =
  let topo = Topology.line 2 in
  let run failures =
    Engine.run ~config:(config ~failures ()) topo (tick_algo ~decide_at:2)
  in
  let r = run [] in
  let m = r.Engine.metrics in
  Alcotest.(check int) "timers are not messages" 0 m.Engine.messages_sent;
  Alcotest.(check int) "nor deliveries" 0 m.Engine.messages_delivered;
  Alcotest.(check int) "two timer events" 2 m.Engine.events;
  Alcotest.(check bool) "fires at the chosen delays" true
    (Float.abs (m.Engine.finish_time -. 3.5) < 1e-9);
  Alcotest.(check (option string)) "chain ran" (Some "2")
    r.Engine.decisions.(0);
  (* local alarms are exempt from message-level failure injection *)
  Alcotest.(check bool) "immune to drop-all" true
    (run [ Engine.Drop_links { prob = 1.0 } ] = r);
  Alcotest.(check bool) "immune to partitions" true
    (run
       [ Engine.Partition { groups = [ [ 0 ] ]; from_ = 0.0; until = 1e9 } ]
    = r)

let test_timer_dies_with_node () =
  let topo = Topology.line 2 in
  let armed_twice =
    {
      Engine.algo_name = "halted-timer";
      initial =
        (fun ctx ->
          if ctx.Engine.self = 0 then begin
            ctx.Engine.timer ~delay:1.0 `First;
            ctx.Engine.timer ~delay:10.0 `Second
          end);
      on_message =
        (fun ctx () ~src:_ -> function
          | `First ->
            ctx.Engine.decide "first";
            ctx.Engine.halt ()
          | `Second -> ctx.Engine.decide "second");
    }
  in
  let r = Engine.run ~config:(config ()) topo armed_twice in
  Alcotest.(check (option string)) "pending timer dies on halt"
    (Some "first") r.Engine.decisions.(0);
  let crashed =
    Engine.run
      ~config:(config ~failures:[ Engine.Crash { node = 0; at = 0.5 } ] ())
      topo armed_twice
  in
  Alcotest.(check (option string)) "timer never fires on a crashed node"
    None crashed.Engine.decisions.(0)

(* ------------------------------------------------------------------ *)
(* Horizons and event order                                            *)
(* ------------------------------------------------------------------ *)

(* One node that re-arms a 1.0 timer on every event: event k fires at
   time k. An event past a horizon is neither counted nor delivered,
   and the clock stops at the last delivered event. *)
let test_horizons () =
  let rearm =
    {
      Engine.algo_name = "rearm";
      initial = (fun ctx -> ctx.Engine.timer ~delay:1.0 ());
      on_message = (fun ctx () ~src:_ () -> ctx.Engine.timer ~delay:1.0 ());
    }
  in
  let run config = (Engine.run ~config (Topology.line 1) rearm).Engine.metrics in
  let m = run { (config ()) with Engine.max_events = 10 } in
  Alcotest.(check int) "max_events: events" 10 m.Engine.events;
  Alcotest.(check (float 1e-12)) "max_events: finish" 10.0 m.Engine.finish_time;
  let m = run { (config ()) with Engine.max_time = 5.5 } in
  Alcotest.(check int) "max_time: events" 5 m.Engine.events;
  Alcotest.(check (float 1e-12)) "max_time: finish" 5.0 m.Engine.finish_time

(* One node whose handler arms 0-3 timers with delays from a small set:
   many tied times, and a queue that grows past several capacities.
   Deliveries must come in (time, scheduling order), and every timer
   inside the horizon must be delivered exactly once. *)
let event_order_prop =
  qtest
    (QCheck.Test.make ~name:"events pop in (time, seq) order" ~count:100
       QCheck.(pair (int_range 0 100_000) (Bounded.int_range 4 12))
       (fun (seed, horizon) ->
         let st = Random.State.make [| seed |] in
         let delays = [| 0.5; 1.0; 1.0; 2.0 |] in
         let armed = ref [] and next = ref 0 in
         let arm (ctx : int Engine.ctx) k =
           for _ = 1 to k do
             let delay = delays.(Random.State.int st 4) in
             armed := (ctx.Engine.now () +. delay, !next) :: !armed;
             ctx.Engine.timer ~delay !next;
             incr next
           done
         in
         let log = ref [] in
         let algo =
           {
             Engine.algo_name = "fan-out";
             initial = (fun ctx -> arm ctx 8);
             on_message =
               (fun ctx () ~src:_ id ->
                 log := (ctx.Engine.now (), id) :: !log;
                 arm ctx (Random.State.int st 4));
           }
         in
         let max_time = float_of_int horizon in
         let r =
           Engine.run
             ~config:{ (config ()) with Engine.max_time }
             (Topology.line 1) algo
         in
         let delivered = List.rev !log in
         let expected =
           List.sort compare (List.filter (fun (t, _) -> t <= max_time) !armed)
         in
         delivered = expected
         && r.Engine.metrics.Engine.events = List.length delivered))

(* Several nodes mix the engine's traffic shapes: monotone runs of
   timers armed at once (a fixed-cadence arrival clock), timers and
   sends with random delays, and integer delays that tie exactly under
   synchronous timing. Every scheduled event carries its push ordinal;
   deliveries must come sorted by (time, ordinal), and all of them must
   arrive. *)
let mixed_order_prop =
  qtest
    (QCheck.Test.make ~name:"timers and sends pop in (time, push) order"
       ~count:100
       QCheck.(triple (int_range 0 100_000) (Bounded.int_range 2 6) bool)
       (fun (seed, n, sync) ->
         let st = Random.State.make [| seed |] in
         let pushed = ref 0 and limit = 400 in
         let stamp () =
           let k = !pushed in
           incr pushed;
           k
         in
         let room k = !pushed + k <= limit in
         let run_of (ctx : int Engine.ctx) =
           let len = 1 + Random.State.int st 12 in
           let step = if Random.State.bool st then 1.0 else 0.25 in
           if room len then
             for i = 1 to len do
               ctx.Engine.timer ~delay:(float_of_int i *. step) (stamp ())
             done
         in
         let act (ctx : int Engine.ctx) =
           match Random.State.int st 4 with
           | 0 -> run_of ctx
           | 1 ->
             if room 1 then
               ctx.Engine.timer
                 ~delay:(float_of_int (Random.State.int st 4))
                 (stamp ())
           | 2 ->
             if room 1 then
               ctx.Engine.timer ~delay:(Random.State.float st 5.0) (stamp ())
           | _ ->
             if room 1 then
               ctx.Engine.send
                 (List.nth ctx.Engine.neighbors
                    (Random.State.int st (List.length ctx.Engine.neighbors)))
                 (stamp ())
         in
         let log = ref [] in
         let algo =
           {
             Engine.algo_name = "mixed";
             initial =
               (fun ctx ->
                 run_of ctx;
                 act ctx);
             on_message =
               (fun ctx () ~src:_ k ->
                 log := (ctx.Engine.now (), k) :: !log;
                 for _ = 1 to Random.State.int st 3 do
                   act ctx
                 done);
           }
         in
         let timing = if sync then Engine.Synchronous else async in
         let r =
           Engine.run ~config:(config ~timing ~seed ()) (Topology.complete n)
             algo
         in
         let delivered = List.rev !log in
         let rec sorted = function
           | a :: (b :: _ as rest) -> compare a b < 0 && sorted rest
           | _ -> true
         in
         sorted delivered
         && List.length delivered = !pushed
         && r.Engine.metrics.Engine.events = !pushed))

(* ------------------------------------------------------------------ *)
(* Randomized election, local computation accounting                   *)
(* ------------------------------------------------------------------ *)

let test_randomized_election () =
  let topo = Topology.ring_unidirectional 12 in
  let r, distinct = Algorithms.Randomized_election.run ~config:(config ()) ~seed:21 topo in
  Alcotest.(check bool) "ids distinct" true distinct;
  Alcotest.(check bool) "a unique leader" true (Algorithms.agreed r <> None)

let test_local_computation_accounted () =
  let n = 16 in
  let topo = Topology.ring_unidirectional n in
  let uids = Array.init n (fun i -> n - i) in
  let r = Algorithms.Lcr.run ~config:(config ()) ~uids topo in
  let total = Engine.total_local_steps r.Engine.metrics in
  Alcotest.(check bool) "local steps tracked" true (total > 0);
  (* comparisons are counted per token receipt, so local work tracks
     message deliveries for LCR *)
  Alcotest.(check bool) "local steps <= deliveries" true
    (total <= r.Engine.metrics.Engine.messages_delivered)

(* ------------------------------------------------------------------ *)
(* Taxonomy                                                            *)
(* ------------------------------------------------------------------ *)

let test_taxonomy_pick () =
  let t = Taxonomy7.build () in
  let best =
    Taxonomy7.pick_for t ~problem:"leader-election"
      ~topology:"bidirectional-ring" ~measure:"messages"
  in
  Alcotest.(check (list string)) "HS for bidirectional rings" [ "HS" ]
    (List.map (fun e -> e.Gp_concepts.Taxonomy.en_name) best);
  let uni =
    Taxonomy7.pick_for t ~problem:"leader-election"
      ~topology:"unidirectional-ring" ~measure:"messages"
  in
  Alcotest.(check bool) "LCR among unidirectional candidates" true
    (List.exists
       (fun e -> e.Gp_concepts.Taxonomy.en_name = "LCR")
       uni)

let test_taxonomy_attributes_inherited () =
  let t = Taxonomy7.build () in
  let attrs = Gp_concepts.Taxonomy.attributes t "election-uni-ring" in
  Alcotest.(check (option string)) "inherits information-sharing"
    (Some "message-passing")
    (List.assoc_opt "information-sharing" attrs);
  Alcotest.(check (option string)) "own timing" (Some "asynchronous")
    (List.assoc_opt "timing" attrs)

(* The sizes above come from Bounded.int_range: a property that always
   fails is shrunk to the range's low end, and no value qcheck generates
   or tries while shrinking lies outside the range. *)
let test_bounded_shrink () =
  List.iter
    (fun (lo, hi) ->
      let tried = ref [] in
      let cell =
        QCheck.Test.make_cell ~count:20 (Bounded.int_range lo hi) (fun x ->
            tried := x :: !tried;
            false)
      in
      (match
         QCheck.TestResult.get_state
           (QCheck.Test.check_cell ~rand:(Random.State.make [| lo |]) cell)
       with
      | QCheck.TestResult.Failed { instances = [ c ] } ->
        Alcotest.(check int)
          (Printf.sprintf "[%d, %d] shrinks to its low end" lo hi)
          lo c.QCheck.TestResult.instance
      | _ -> Alcotest.failf "[%d, %d]: expected one counterexample" lo hi);
      Alcotest.(check (list int))
        (Printf.sprintf "[%d, %d]: nothing tried outside" lo hi)
        []
        (List.filter (fun x -> x < lo || x > hi) !tried))
    [ (1, 8); (2, 40); (10, 50); (4, 12) ]

let () =
  Alcotest.run "gp_distsim"
    [
      ( "bounded ints",
        [ Alcotest.test_case "shrink stays in range" `Quick test_bounded_shrink ]
      );
      ( "topology",
        [
          Alcotest.test_case "shapes" `Quick test_topologies;
          Alcotest.test_case "random connected" `Quick
            test_random_topology_connected;
          Alcotest.test_case "tree" `Quick test_tree_topology;
          random_topo_connected_prop;
          random_topo_deterministic_prop;
          random_topo_degree_prop;
        ] );
      ( "engine",
        [ Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "golden streams" `Quick test_golden_streams;
          telemetry_transparent_prop ] );
      ( "leader election",
        [
          Alcotest.test_case "LCR elects max" `Quick test_lcr_elects_max;
          lcr_prop;
          Alcotest.test_case "LCR message bounds" `Quick
            test_lcr_message_bounds;
          hs_prop;
          Alcotest.test_case "HS beats LCR" `Quick
            test_hs_beats_lcr_on_messages;
          Alcotest.test_case "randomized election" `Quick
            test_randomized_election;
        ] );
      ( "extensions",
        [
          Alcotest.test_case "token ring" `Quick test_token_ring_entries;
          token_ring_prop;
          floodmax_prop;
          Alcotest.test_case "partially synchronous" `Quick
            test_partially_synchronous;
        ] );
      ( "broadcast & trees",
        [
          Alcotest.test_case "flooding" `Quick test_flooding_informs_all;
          Alcotest.test_case "echo counts nodes" `Quick test_echo_counts_nodes;
          Alcotest.test_case "bfs distances" `Quick test_bfs_tree_distances;
          bellman_ford_prop;
        ] );
      ( "failures",
        [
          Alcotest.test_case "crash partitions" `Quick
            test_crash_partitions_broadcast;
          Alcotest.test_case "drop all" `Quick test_drop_all_links;
          Alcotest.test_case "byzantine" `Quick test_byzantine_corruption;
          Alcotest.test_case "partition isolates" `Quick
            test_partition_isolates;
          Alcotest.test_case "partition outside window" `Quick
            test_partition_outside_window_is_transparent;
          Alcotest.test_case "partition heals" `Quick test_partition_heals;
          Alcotest.test_case "timer local alarm" `Quick
            test_timer_local_alarm;
          Alcotest.test_case "timer dies with node" `Quick
            test_timer_dies_with_node;
        ] );
      ( "horizons",
        [ Alcotest.test_case "horizon events are not delivered" `Quick
            test_horizons;
          event_order_prop; mixed_order_prop ] );
      ( "accounting",
        [
          Alcotest.test_case "local computation" `Quick
            test_local_computation_accounted;
        ] );
      ( "taxonomy",
        [
          Alcotest.test_case "pick" `Quick test_taxonomy_pick;
          Alcotest.test_case "attributes" `Quick
            test_taxonomy_attributes_inherited;
        ] );
    ]
