(* Tests for the scenario catalog: arrival-process invariants, the
   multi-tenant merge, every catalog entry running clean under audit
   (with the shed-exclusion accounting identity), fairness under the
   flood, and bit-exact determinism. *)

open Gp_scenario

let qtest = QCheck_alcotest.to_alcotest

let declare_standard = Gp_standard.Standard.declare

let run ?(quick = true) ?(seed = 1) ?(audit = false) t =
  Scenario.run ~quick ~seed ~audit ~declare_standard t

(* ------------------------------------------------------------------ *)
(* Arrival processes                                                   *)
(* ------------------------------------------------------------------ *)

let arrival_args = QCheck.(pair (int_range 0 5000) (int_range 0 300))

let arrivals_valid_prop =
  qtest
    (QCheck.Test.make
       ~name:
         "arrivals: every generator is strictly increasing and positive"
       ~count:60 arrival_args
       (fun (seed, n) ->
         Arrivals.is_valid (Arrivals.poisson ~seed ~rate:5.0 n)
         && Arrivals.is_valid
              (Arrivals.diurnal ~seed ~base_rate:1.0 ~peak_rate:7.0
                 ~period:50.0 n)
         && Arrivals.is_valid
              (Arrivals.burst ~seed ~rate:2.0 ~burst_rate:40.0
                 ~burst_from:10.0 ~burst_until:20.0 n)
         && Arrivals.is_valid (Arrivals.uniform ~interval:0.5 n)))

let arrivals_pure_prop =
  qtest
    (QCheck.Test.make ~name:"arrivals: a pure function of the seed"
       ~count:60 arrival_args
       (fun (seed, n) ->
         Arrivals.poisson ~seed ~rate:3.0 n
         = Arrivals.poisson ~seed ~rate:3.0 n))

let merge_prop =
  qtest
    (QCheck.Test.make
       ~name:
         "merge: tenant-tagged interleaving is valid and loses nobody"
       ~count:60
       QCheck.(pair (int_range 0 3000) (pair (int_range 0 80) (int_range 0 80)))
       (fun (seed, (na, nb)) ->
         let a = Arrivals.poisson ~seed ~rate:2.0 na in
         let b = Arrivals.burst ~seed:(seed + 1) ~rate:1.0 ~burst_rate:20.0
                   ~burst_from:5.0 ~burst_until:15.0 nb
         in
         let m = Arrivals.merge [ a; b ] in
         let count t =
           Array.fold_left (fun k (ti, _) -> if ti = t then k + 1 else k) 0 m
         in
         Array.length m = na + nb
         && count 0 = na && count 1 = nb
         && Arrivals.is_valid (Arrivals.times m)))

(* ------------------------------------------------------------------ *)
(* The catalog under audit                                             *)
(* ------------------------------------------------------------------ *)

(* Every entry must pass its own declared checks AND audit clean; shed
   verdicts are excluded from the fingerprint diff by construction, so
   the audit accounting identity has to close with the shed column. *)
let test_catalog_audited () =
  List.iter
    (fun t ->
      let o = run ~audit:true t in
      Alcotest.(check (list string))
        (Scenario.name t ^ ": no violations")
        [] o.Scenario.o_violations;
      Alcotest.(check int)
        (Scenario.name t ^ ": everything completes")
        o.Scenario.o_requests o.Scenario.o_completed;
      match o.Scenario.o_audit with
      | None -> Alcotest.fail (Scenario.name t ^ ": audit missing")
      | Some a ->
        Alcotest.(check int)
          (Scenario.name t ^ ": nothing divergent")
          0
          (List.length a.Gp_cluster.Cluster.au_divergences);
        Alcotest.(check int)
          (Scenario.name t ^ ": shed count agrees with the result")
          o.Scenario.o_shed a.Gp_cluster.Cluster.au_shed;
        Alcotest.(check int)
          (Scenario.name t ^ ": compared + missing + shed = total")
          a.Gp_cluster.Cluster.au_total
          (a.Gp_cluster.Cluster.au_compared
          + a.Gp_cluster.Cluster.au_missing
          + a.Gp_cluster.Cluster.au_shed))
    Scenario.catalog

let test_catalog_names () =
  let names = List.map Scenario.name Scenario.catalog in
  Alcotest.(check (list string))
    "the catalog, in order"
    [ "steady"; "diurnal"; "hotkey_flood"; "stampede"; "elastic";
      "tenants"; "million" ]
    names;
  List.iter
    (fun n ->
      match Scenario.find n with
      | Some t -> Alcotest.(check string) "find is by name" n (Scenario.name t)
      | None -> Alcotest.failf "find %S returned nothing" n)
    names;
  Alcotest.(check bool) "unknown name" true (Scenario.find "nope" = None)

let test_determinism () =
  match Scenario.find "tenants" with
  | None -> Alcotest.fail "tenants scenario missing"
  | Some t ->
    let o1 = run t and o2 = run t in
    Alcotest.(check string) "same seed, bit-identical records"
      (Gp_cluster.Cluster.dump o1.Scenario.o_result)
      (Gp_cluster.Cluster.dump o2.Scenario.o_result);
    Alcotest.(check int) "same shed" o1.Scenario.o_shed o2.Scenario.o_shed

(* ------------------------------------------------------------------ *)
(* Multi-tenant fairness                                               *)
(* ------------------------------------------------------------------ *)

(* The fairness property, across seeds: per-tenant accounting closes,
   the door shed somebody (the flood overwhelms the bounded queue at
   every seed), and no protected tenant (a, b) is served a smaller
   fraction of its traffic than the flooding tenant c — the shed cost
   lands on the tenant that caused it. *)
let fairness_prop =
  qtest
    (QCheck.Test.make ~name:"tenants: the flooder bears the shedding"
       ~count:6
       QCheck.(int_range 1 1000)
       (fun seed ->
         match Scenario.find "tenants" with
         | None -> false
         | Some t ->
           let o = run ~seed t in
           let stat name =
             List.find
               (fun s -> String.equal s.Scenario.tn_name name)
               o.Scenario.o_tenants
           in
           let a = stat "a" and b = stat "b" and c = stat "c" in
           List.for_all
             (fun s ->
               s.Scenario.tn_served + s.Scenario.tn_shed
               = s.Scenario.tn_requests)
             [ a; b; c ]
           && o.Scenario.o_shed > 0
           && a.Scenario.tn_ratio >= c.Scenario.tn_ratio
           && b.Scenario.tn_ratio >= c.Scenario.tn_ratio))

let () =
  Alcotest.run "gp_scenario"
    [
      ( "arrivals",
        [ arrivals_valid_prop; arrivals_pure_prop; merge_prop ] );
      ( "catalog",
        [
          Alcotest.test_case "names and find" `Quick test_catalog_names;
          Alcotest.test_case "every entry audits clean" `Slow
            test_catalog_audited;
          Alcotest.test_case "determinism" `Quick test_determinism;
        ] );
      ("fairness", [ fairness_prop ]);
    ]
