(* Tests for the simulated serving cluster: consistent-hashing
   placement properties, the single-replica transparency property (a
   1-node failure-free cluster answers exactly like a bare server),
   failover under leader crash and partition, dump/offline-audit round
   trips, and bit-exact determinism. *)

open Gp_service
open Gp_cluster

let qtest = QCheck_alcotest.to_alcotest

let declare_standard = Gp_standard.Standard.declare

let workload ?(n = 60) seed =
  Array.of_list (Workload.generate ~seed ~n ())

let run ?(config = Cluster.default_config) reqs =
  Cluster.run ~config ~declare_standard reqs

(* ------------------------------------------------------------------ *)
(* Hash ring                                                           *)
(* ------------------------------------------------------------------ *)

let ring_args = QCheck.(triple (int_range 1 12) (int_range 1 96) small_string)

let ring_of n vn = Hash_ring.create ~vnodes:vn ~replicas:(List.init n (fun i -> i + 1)) ()

let ring_successors_prop =
  qtest
    (QCheck.Test.make
       ~name:"hash ring: successors start at the shard and cover all replicas"
       ~count:200 ring_args
       (fun (n, vn, key) ->
         let ring = ring_of n vn in
         let succ = Hash_ring.successors ring key in
         List.hd succ = Hash_ring.shard ring key
         && List.sort compare succ = List.init n (fun i -> i + 1)))

let ring_deterministic_prop =
  qtest
    (QCheck.Test.make ~name:"hash ring: placement is a pure function"
       ~count:200 ring_args
       (fun (n, vn, key) ->
         Hash_ring.successors (ring_of n vn) key
         = Hash_ring.successors (ring_of n vn) key))

(* the consistent-hashing contract: growing the cluster by one replica
   only moves keys onto the newcomer, never between old replicas *)
let ring_minimal_movement_prop =
  qtest
    (QCheck.Test.make ~name:"hash ring: adding a replica moves keys minimally"
       ~count:200
       QCheck.(triple (int_range 1 10) (int_range 1 64) small_string)
       (fun (n, vn, key) ->
         let before = Hash_ring.shard (ring_of n vn) key in
         let after = Hash_ring.shard (ring_of (n + 1) vn) key in
         after = before || after = n + 1))

(* the elastic contract, via the dedicated operations: a join changes a
   key's owner iff the joiner takes it *)
let ring_join_prop =
  qtest
    (QCheck.Test.make
       ~name:"hash ring: add_replica moves keys only onto the joiner"
       ~count:200 ring_args
       (fun (n, vn, key) ->
         let ring = ring_of n vn in
         let joined = Hash_ring.add_replica ring (n + 1) in
         let before = Hash_ring.shard ring key in
         let after = Hash_ring.shard joined key in
         after = before || after = n + 1))

(* ... and a leave strands only the leaver's keys: everyone else's
   owner survives verbatim *)
let ring_leave_prop =
  qtest
    (QCheck.Test.make
       ~name:"hash ring: remove_replica moves only the leaver's keys"
       ~count:200
       QCheck.(triple (int_range 2 12) (int_range 1 96) small_string)
       (fun (n, vn, key) ->
         let ring = ring_of n vn in
         let leaver = 1 + (Hashtbl.hash (vn, key) mod n) in
         let shrunk = Hash_ring.remove_replica ring leaver in
         let before = Hash_ring.shard ring key in
         let after = Hash_ring.shard shrunk key in
         if before = leaver then after <> leaver else after = before))

let ring_join_leave_roundtrip_prop =
  qtest
    (QCheck.Test.make
       ~name:"hash ring: join then leave restores every placement"
       ~count:200 ring_args
       (fun (n, vn, key) ->
         let ring = ring_of n vn in
         let back =
           Hash_ring.remove_replica (Hash_ring.add_replica ring (n + 1)) (n + 1)
         in
         Hash_ring.shard back key = Hash_ring.shard ring key
         && Hash_ring.successors back key = Hash_ring.successors ring key))

let test_ring_elastic_invalid () =
  let ring = ring_of 3 16 in
  Alcotest.check_raises "duplicate join"
    (Invalid_argument "Hash_ring.add_replica: replica already on the ring")
    (fun () -> ignore (Hash_ring.add_replica ring 2));
  Alcotest.check_raises "absent leaver"
    (Invalid_argument "Hash_ring.remove_replica: replica not on the ring")
    (fun () -> ignore (Hash_ring.remove_replica ring 9));
  Alcotest.check_raises "cannot empty the ring"
    (Invalid_argument "Hash_ring.remove_replica: cannot empty the ring")
    (fun () -> ignore (Hash_ring.remove_replica (ring_of 1 16) 1))

let test_ring_spread () =
  let ring = ring_of 4 64 in
  let keys = List.init 500 (fun i -> Printf.sprintf "key-%d" i) in
  let spread = Hash_ring.spread ring keys in
  Alcotest.(check int) "every key owned" 500
    (List.fold_left (fun acc (_, k) -> acc + k) 0 spread);
  Alcotest.(check (list int)) "replica ids ascending" [ 1; 2; 3; 4 ]
    (List.map fst spread);
  Alcotest.(check bool) "no starved replica" true
    (List.for_all (fun (_, k) -> k > 0) spread)

let test_ring_invalid () =
  Alcotest.check_raises "empty replica set"
    (Invalid_argument "Hash_ring.create: no replicas") (fun () ->
      ignore (Hash_ring.create ~replicas:[] ()));
  Alcotest.check_raises "no vnodes"
    (Invalid_argument "Hash_ring.create: vnodes < 1") (fun () ->
      ignore (Hash_ring.create ~vnodes:0 ~replicas:[ 1 ] ()))

(* ------------------------------------------------------------------ *)
(* Protocol                                                            *)
(* ------------------------------------------------------------------ *)

let test_is_write () =
  Alcotest.(check bool) "Parse mutates the registry" true
    (Proto.is_write (Request.Parse { source = "type t { }\n" }));
  List.iter
    (fun (name, req) ->
      Alcotest.(check bool) (name ^ " is a read") false (Proto.is_write req))
    [
      ("Check", Request.Check
         { concept = "Semigroup"; types = [ "int" ]; nominal = false;
           defs = None });
      ("Lint", Request.Lint { source = "x" });
      ("Optimize", Request.Optimize { expr = "x"; certified_only = false });
      ("Prove", Request.Prove { theory = "monoid"; instance = None });
      ("Closure", Request.Closure { concept = "Monoid"; types = [ "int" ] });
    ]

(* ------------------------------------------------------------------ *)
(* Single-replica transparency                                         *)
(* ------------------------------------------------------------------ *)

(* The satellite property: with one replica and no failures the cluster
   is pure plumbing — every response fingerprint must equal what one
   bare server produces for the same stream, in order. *)
let transparency_prop =
  qtest
    (QCheck.Test.make
       ~name:"1 replica, 0 failures: cluster = bare server (fingerprints)"
       ~count:8
       QCheck.(pair (int_range 0 10_000) (int_range 10 50))
       (fun (seed, n) ->
         let reqs = workload ~n seed in
         let config = { Cluster.default_config with replicas = 1 } in
         let r = run ~config reqs in
         let server =
           Server.create ~config:config.Cluster.server_config
             ~declare_standard ()
         in
         let bare = Server.process server (Array.to_list reqs) in
         r.Cluster.r_completed = n
         && List.for_all2
              (fun rec_ rsp ->
                match rec_ with
                | None -> false
                | Some rec_ ->
                  String.equal rec_.Node.rc_fp
                    (Request.response_fingerprint rsp))
              (Array.to_list r.Cluster.r_records)
              bare))

(* ------------------------------------------------------------------ *)
(* Healthy runs                                                        *)
(* ------------------------------------------------------------------ *)

let test_healthy_run () =
  let reqs = workload 3 in
  let r = run reqs in
  Alcotest.(check int) "all requests complete" (Array.length reqs)
    r.Cluster.r_completed;
  Alcotest.(check int) "exactly the initial election" 1 r.Cluster.r_elections;
  Alcotest.(check (list (pair (float 0.0) (float 0.0)))) "no failovers" []
    r.Cluster.r_failovers;
  Alcotest.(check int) "no retries without failures" 0 (Cluster.retried r);
  (match r.Cluster.r_leaders with
  | [ (_, leader) ] ->
    Alcotest.(check int) "highest replica id wins FloodMax" 3 leader
  | l ->
    Alcotest.failf "expected one coordinator acceptance, got %d"
      (List.length l));
  let a = Cluster.audit ~declare_standard r in
  Alcotest.(check bool) "audit clean" true (Cluster.audit_ok a);
  Alcotest.(check int) "audit compared everything" (Array.length reqs)
    a.Cluster.au_compared

let test_keyed_beats_round_robin () =
  (* key affinity routes repeats of a hot key to the same replica, so
     the cluster-wide hit ratio must beat blind round-robin on the same
     stream *)
  let reqs = workload ~n:120 7 in
  let keyed = run reqs in
  let rr =
    run ~config:{ Cluster.default_config with affinity = false } reqs
  in
  Alcotest.(check bool)
    (Printf.sprintf "hit ratio: keyed %.3f > round-robin %.3f"
       (Cluster.hit_ratio keyed) (Cluster.hit_ratio rr))
    true
    (Cluster.hit_ratio keyed > Cluster.hit_ratio rr)

(* ------------------------------------------------------------------ *)
(* Failover                                                            *)
(* ------------------------------------------------------------------ *)

let test_leader_crash_failover () =
  let reqs = workload ~n:80 5 in
  let config =
    { Cluster.default_config with
      failures = [ Cluster.Crash_leader { at = 30.0 } ] }
  in
  let r = run ~config reqs in
  Alcotest.(check int) "workload still completes" (Array.length reqs)
    r.Cluster.r_completed;
  Alcotest.(check bool) "a re-election happened" true
    (r.Cluster.r_elections >= 2);
  Alcotest.(check bool) "a failover was recorded" true
    (List.length r.Cluster.r_failovers >= 1);
  List.iter
    (fun (dead, coord) ->
      Alcotest.(check bool) "failover latency positive" true (coord > dead))
    r.Cluster.r_failovers;
  (* the crashed initial leader (highest id, replica 3) must be
     replaced by a live one; [r_leaders] is oldest first *)
  (match List.rev r.Cluster.r_leaders with
  | (_, last) :: _ ->
    Alcotest.(check bool) "new leader is not the crashed one" true
      (last <> 3)
  | [] -> Alcotest.fail "no coordinator ever accepted");
  Alcotest.(check bool) "consistency survives the crash" true
    (Cluster.audit_ok (Cluster.audit ~declare_standard r))

let test_partition_failover () =
  (* isolate the initial leader (replica 3) from everyone for a window:
     the router must elect a reachable leader and keep serving *)
  let reqs = workload ~n:80 9 in
  let config =
    { Cluster.default_config with
      failures =
        [ Cluster.Partition
            { groups = [ [ 3 ] ]; from_ = 10.0; until = 120.0 } ] }
  in
  let r = run ~config reqs in
  Alcotest.(check int) "workload completes despite the partition"
    (Array.length reqs) r.Cluster.r_completed;
  Alcotest.(check bool) "partition triggered a re-election" true
    (r.Cluster.r_elections >= 2);
  Alcotest.(check bool) "answers stay consistent" true
    (Cluster.audit_ok (Cluster.audit ~declare_standard r))

let test_replicas_required () =
  Alcotest.check_raises "replicas < 1 rejected"
    (Invalid_argument "Cluster.run: replicas < 1") (fun () ->
      ignore (run ~config:{ Cluster.default_config with replicas = 0 }
                (workload 1)))

(* ------------------------------------------------------------------ *)
(* Determinism, dump, offline audit                                    *)
(* ------------------------------------------------------------------ *)

let faulty_config =
  { Cluster.default_config with
    failures =
      [ Cluster.Drop 0.2; Cluster.Crash_leader { at = 40.0 } ] }

let test_determinism () =
  let reqs = workload ~n:80 11 in
  let d1 = Cluster.dump (run ~config:faulty_config reqs) in
  let d2 = Cluster.dump (run ~config:faulty_config reqs) in
  Alcotest.(check string) "same seed, bit-identical dumps" d1 d2

let test_dump_roundtrip () =
  let reqs = workload ~n:60 13 in
  let r = run ~config:faulty_config reqs in
  let inline = Cluster.audit ~declare_standard r in
  match Cluster.audit_dump ~declare_standard (Cluster.dump r) with
  | Error e -> Alcotest.failf "offline audit failed: %s" e
  | Ok offline ->
    Alcotest.(check bool) "offline audit clean" true
      (Cluster.audit_ok offline);
    Alcotest.(check int) "offline compares what inline compares"
      inline.Cluster.au_compared offline.Cluster.au_compared;
    Alcotest.(check int) "missing counts agree" inline.Cluster.au_missing
      offline.Cluster.au_missing

let test_dump_malformed () =
  let bad s =
    match Cluster.audit_dump ~declare_standard s with
    | Error _ -> true
    | Ok _ -> false
  in
  Alcotest.(check bool) "empty document rejected" true (bad "");
  Alcotest.(check bool) "non-JSON header rejected" true (bad "not json\n");
  Alcotest.(check bool) "foreign header rejected" true
    (bad "{\"flight\": 1}\n")

(* The header's server_config goes through the server's one range check:
   an out-of-range value is the loader's [bad server_config] error, not an
   exception from the audit server. *)
let test_dump_server_config () =
  let d = Cluster.dump (run (workload ~n:20 3)) in
  (* replace the first occurrence of [from], which lies in the header *)
  let swap ~from ~to_ =
    let n = String.length from in
    let rec find i =
      if i + n > String.length d then Alcotest.failf "%S not in dump" from
      else if String.sub d i n = from then i
      else find (i + 1)
    in
    let at = find 0 in
    String.sub d 0 at ^ to_ ^ String.sub d (at + n) (String.length d - at - n)
  in
  List.iter
    (fun (from, to_, why) ->
      match Cluster.audit_dump ~declare_standard (swap ~from ~to_) with
      | Ok _ -> Alcotest.failf "header with %s accepted" to_
      | Error e ->
        Alcotest.(check string) (to_ ^ " is a bad server_config")
          ("bad server_config: bad config: " ^ why) e
      | exception ex ->
        Alcotest.failf "header with %s raised %s" to_ (Printexc.to_string ex))
    [ ("\"cache_capacity\":256", "\"cache_capacity\":0",
       "cache_capacity must be >= 1, got 0");
      ("\"max_steps\":100000", "\"max_steps\":-3",
       "max_steps must be >= 0, got -3");
      (* decoded from the parsed header, not from a re-rendered line that
         would print the overflowed timeout as inf *)
      ("\"timeout\":null", "\"timeout\":1e999",
       "timeout must be a finite number >= 0, got inf") ]

(* ------------------------------------------------------------------ *)
(* Elasticity and overload control                                     *)
(* ------------------------------------------------------------------ *)

(* A join and a leave mid-run: membership counters move, the joiner is
   caught up by write handoff, and the keys that changed owner stay
   within the consistent-hashing minimal-movement allowance — all while
   the audit stays clean (an elastic cluster may answer late, never
   wrong). *)
let test_elastic_run () =
  let n = 120 in
  let reqs = workload ~n 17 in
  let config =
    { Cluster.default_config with
      replicas = 3;
      elastic =
        [
          { Node.el_at = 30.0; el_join = true; el_replica = 4 };
          { Node.el_at = 60.0; el_join = false; el_replica = 1 };
        ] }
  in
  let r = run ~config reqs in
  Alcotest.(check int) "everything completes" n r.Cluster.r_completed;
  Alcotest.(check int) "one join" 1 r.Cluster.r_joined;
  Alcotest.(check int) "one leave" 1 r.Cluster.r_left;
  Alcotest.(check bool) "joiner caught up by handoff" true
    (r.Cluster.r_handoffs > 0);
  Alcotest.(check bool) "movement within the minimal bound" true
    (r.Cluster.r_moved_keys <= r.Cluster.r_moved_bound);
  Alcotest.(check bool) "audit clean" true
    (Cluster.audit_ok (Cluster.audit ~declare_standard r))

(* Slow serves behind a bounded router queue and a replica backlog
   limit: the cluster sheds typed verdicts instead of queueing without
   bound, and the shed column closes the offline audit's accounting
   identity. *)
let shedding_config =
  { Cluster.default_config with
    replicas = 2;
    tuning =
      { Node.default_tuning with
        service_time = 2.0;
        queue_bound = 6;
        shed_backlog = 4.0 } }

let test_shed_roundtrip () =
  let n = 90 in
  let reqs = workload ~n 19 in
  let r = run ~config:shedding_config reqs in
  Alcotest.(check int) "shed verdicts still complete" n
    r.Cluster.r_completed;
  Alcotest.(check bool) "overload control engaged" true
    (Cluster.shed_total r > 0);
  Alcotest.(check bool) "the queue respected its bound" true
    (r.Cluster.r_peak_inflight <= 6);
  match Cluster.audit_dump ~declare_standard (Cluster.dump r) with
  | Error e -> Alcotest.failf "offline audit failed: %s" e
  | Ok a ->
    Alcotest.(check int) "offline shed column = run's shed total"
      (Cluster.shed_total r) a.Cluster.au_shed;
    Alcotest.(check int) "compared + missing + shed = total"
      a.Cluster.au_total
      (a.Cluster.au_compared + a.Cluster.au_missing + a.Cluster.au_shed);
    Alcotest.(check int) "nothing divergent" 0
      (List.length a.Cluster.au_divergences);
    Alcotest.(check int) "nothing missing" 0 a.Cluster.au_missing

(* Malformed scenario fields are rejected with the wire's positioned
   convention; the expected position is recomputed here from the
   tampered line itself (first occurrence of the bare field name). *)
let test_dump_malformed_scenario_fields () =
  let d = Cluster.dump (run ~config:shedding_config (workload ~n:90 19)) in
  let lines = String.split_on_char '\n' d in
  let pos_of line name =
    let n = String.length line and m = String.length name in
    let rec go i =
      if i + m > n then Alcotest.failf "field %S not in line %S" name line
      else if String.sub line i m = name then i
      else go (i + 1)
    in
    go 0
  in
  let replace line ~from ~to_ =
    let at = pos_of line from in
    String.sub line 0 at ^ to_
    ^ String.sub line (at + String.length from)
        (String.length line - at - String.length from)
  in
  let rebuild lines = String.concat "\n" lines in
  let expect_err doc want =
    match Cluster.audit_dump ~declare_standard doc with
    | Ok _ -> Alcotest.failf "tampered dump accepted (wanted %S)" want
    | Error e -> Alcotest.(check string) "positioned rejection" want e
  in
  (* header: the shed counter must be a non-negative int — swap its
     digits for a string *)
  (match lines with
   | header :: rest ->
     let at = pos_of header "\"shed\":" in
     let digits_from = at + String.length "\"shed\":" in
     let digits_to = ref digits_from in
     while
       !digits_to < String.length header
       && (match header.[!digits_to] with '0' .. '9' -> true | _ -> false)
     do
       incr digits_to
     done;
     let bad_header =
       String.sub header 0 digits_from ^ "\"x\""
       ^ String.sub header !digits_to (String.length header - !digits_to)
     in
     let p = pos_of bad_header "shed" in
     expect_err
       (rebuild (bad_header :: rest))
       (Printf.sprintf "at %d: bad field \"shed\" (want a non-negative int)" p)
   | [] -> Alcotest.fail "empty dump");
  (* record: the shed marker must be a bool *)
  match
    List.partition
      (fun l ->
        (* a shed record carries the compact marker *)
        let marker = "\"shed\":true" in
        let n = String.length l and m = String.length marker in
        let rec has i =
          i + m <= n && (String.sub l i m = marker || has (i + 1))
        in
        has 0)
      lines
  with
  | [], _ -> Alcotest.fail "no shed record in the dump"
  | shed_line :: _, _ ->
    let bad = replace shed_line ~from:"\"shed\":true" ~to_:"\"shed\":3" in
    let doc =
      rebuild
        (List.map (fun l -> if l == shed_line then bad else l) lines)
    in
    let p = pos_of bad "shed" in
    expect_err doc
      (Printf.sprintf "at %d: bad field \"shed\" (want a bool)" p)

let () =
  Alcotest.run "gp_cluster"
    [
      ( "hash ring",
        [
          ring_successors_prop;
          ring_deterministic_prop;
          ring_minimal_movement_prop;
          ring_join_prop;
          ring_leave_prop;
          ring_join_leave_roundtrip_prop;
          Alcotest.test_case "spread" `Quick test_ring_spread;
          Alcotest.test_case "invalid args" `Quick test_ring_invalid;
          Alcotest.test_case "elastic invalid args" `Quick
            test_ring_elastic_invalid;
        ] );
      ("protocol", [ Alcotest.test_case "is_write" `Quick test_is_write ]);
      ( "transparency",
        [ transparency_prop ] );
      ( "serving",
        [
          Alcotest.test_case "healthy run" `Quick test_healthy_run;
          Alcotest.test_case "keyed beats round-robin" `Quick
            test_keyed_beats_round_robin;
        ] );
      ( "failover",
        [
          Alcotest.test_case "leader crash" `Quick test_leader_crash_failover;
          Alcotest.test_case "partition" `Quick test_partition_failover;
          Alcotest.test_case "replicas required" `Quick
            test_replicas_required;
        ] );
      ( "elasticity & overload",
        [
          Alcotest.test_case "join and leave mid-run" `Quick
            test_elastic_run;
          Alcotest.test_case "shed round-trip" `Quick test_shed_roundtrip;
        ] );
      ( "dump & audit",
        [
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "dump round-trip" `Quick test_dump_roundtrip;
          Alcotest.test_case "malformed dump" `Quick test_dump_malformed;
          Alcotest.test_case "out-of-range server_config rejected" `Quick
            test_dump_server_config;
          Alcotest.test_case "malformed scenario fields" `Quick
            test_dump_malformed_scenario_fields;
        ] );
    ]
