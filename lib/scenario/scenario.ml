(* The scenario catalog: named, seeded cluster experiments — each one a
   workload + arrival process + cluster configuration + a set of
   declared expectations, run through Gp_cluster and reduced to one
   outcome record. Everything is simulated time, so a (scenario, seed,
   quick) triple replays bit-identically; the bench gates rely on it. *)

module Cluster = Gp_cluster.Cluster
module Node = Gp_cluster.Node
module Request = Gp_service.Request
module Workload = Gp_service.Workload
module Fleet = Gp_tracing.Fleet

type spec = {
  sp_config : Cluster.config;
  sp_reqs : Request.t array;
  sp_tenant_names : string array;
  sp_tenant_of : int -> int;
  sp_floors : float array;
      (* per-tenant served-ratio floor, same order as sp_tenant_names *)
  sp_checks : Cluster.result -> string list;
}

type t = {
  name : string;
  summary : string;
  build : quick:bool -> seed:int -> spec;
}

let name t = t.name
let summary t = t.summary

type tenant_stat = {
  tn_name : string;
  tn_requests : int;
  tn_served : int;
  tn_shed : int;
  tn_ratio : float;
  tn_floor : float;
}

type outcome = {
  o_name : string;
  o_replicas : int;
  o_requests : int;
  o_completed : int;
  o_shed : int;
  o_shed_ratio : float;
  o_peak_queue : int;
  o_p50 : float;
  o_p99 : float;
  o_max : float;
  o_hit_ratio : float;
  o_promotions : int;
  o_promoted : string list;
  o_joined : int;
  o_left : int;
  o_handoffs : int;
  o_moved : int;
  o_moved_bound : int;
  o_tenants : tenant_stat list;
  o_violations : string list;
  o_audit : Cluster.audit option;
  o_result : Cluster.result;
}

let ok o = o.o_violations = []

(* ---------------------------------------------------------------- *)
(* Workload helpers                                                  *)
(* ---------------------------------------------------------------- *)

let reqs ?mix ?zipf ?keyspace ~seed n =
  Array.of_list (Workload.generate ?mix ?zipf ?keyspace ~seed ~n ())

(* Tile a small request pool into a long stream with a quadratic hot
   bias (u² pushes picks toward the pool head). The pool holds the only
   distinct values — a million-request array is a million pointers. *)
let tiled ~seed ~pool n =
  let st = Random.State.make [| seed; 0x71ed |] in
  let m = Array.length pool in
  Array.init n (fun _ ->
      let u = Random.State.float st 1.0 in
      pool.(min (m - 1) (int_of_float (float_of_int m *. u *. u))))

let no_tenants = ([||], (fun _ -> 0), [||])

let base_spec ~config ~reqs ?(tenants = no_tenants) ?(checks = fun _ -> [])
    () =
  let names, of_, floors = tenants in
  {
    sp_config = config;
    sp_reqs = reqs;
    sp_tenant_names = names;
    sp_tenant_of = of_;
    sp_floors = floors;
    sp_checks = checks;
  }

let scale ~quick full = if quick then max 1 (full / 8) else full

(* ---------------------------------------------------------------- *)
(* The catalog                                                       *)
(* ---------------------------------------------------------------- *)

(* A read-heavy mix for the scale scenarios: writes replicate to all 32
   replicas, so their share is what sets the fan-out bill — 0.5% writes
   is ~150k replicated serves at a million requests. *)
let read_heavy_mix =
  [ (Request.Kclosure, 60); (Request.Klint, 50); (Request.Kcheck, 40);
    (Request.Koptimize, 25); (Request.Kprove, 24); (Request.Kparse, 1) ]

let steady =
  {
    name = "steady";
    summary =
      "Poisson arrivals well under capacity on 8 replicas: the null \
       hypothesis — nothing sheds, nothing is promoted";
    build =
      (fun ~quick ~seed ->
        let n = scale ~quick 2000 in
        let config =
          { Cluster.default_config with
            replicas = 8;
            seed;
            tuning =
              { Node.default_tuning with
                service_time = 0.2;
                service_time_hit = 0.02 };
            arrivals = Some (Arrivals.poisson ~seed ~rate:4.0 n) }
        in
        let checks r =
          if Cluster.shed_total r > 0 then
            [ Printf.sprintf "steady load shed %d requests"
                (Cluster.shed_total r) ]
          else []
        in
        base_spec ~config ~reqs:(reqs ~seed n) ~checks ());
  }

let diurnal =
  {
    name = "diurnal";
    summary =
      "a raised-cosine day on 6 replicas: the peak rate is 9x the \
       trough and the cluster must ride it out without shedding";
    build =
      (fun ~quick ~seed ->
        let n = scale ~quick 2000 in
        let config =
          { Cluster.default_config with
            replicas = 6;
            seed;
            tuning =
              { Node.default_tuning with
                service_time = 0.2;
                service_time_hit = 0.02 };
            arrivals =
              Some
                (Arrivals.diurnal ~seed ~base_rate:1.0 ~peak_rate:9.0
                   ~period:250.0 n) }
        in
        base_spec ~config ~reqs:(reqs ~seed n) ());
  }

(* The flood workload: closure queries only (memoized in the closures
   LRU), a steep zipf head over 60 keys, arrivals that jump to flood
   rate at t=50. The replica caches are deliberately tiny (2 entries
   against the ~6.7 keys each of the 9 replicas owns), so a key stays
   warm only where it is served steadily. Unmitigated, the hot key's
   owner saturates on hits alone, dispatches time out, and retries
   scatter the hot key across the whole ring — each scattered visit
   lands on a cache that has already evicted it, so it re-serves at
   full cost, squeezes that replica's own keys out of the LRU, and
   feeds the backlog. Promoting the head keys onto a two-successor
   rotation serves them from caches they never leave and keeps the
   pollution off the other seven replicas — promotion wins BOTH p99
   and miss ratio, which bench s10 measures by running this config
   twice. The balance is deliberate and tight: a wider spread thrashes
   the successors' two LRU slots with each other's promoted keys, a
   narrower one saturates the pair, and a promote-after threshold
   under the space-saving table's inherited floor (tail traffic /
   slots) would promote junk. *)
let flood_config ~quick ~seed ~promote n =
  { Cluster.default_config with
    replicas = 9;
    seed;
    server_config =
      { Cluster.default_config.server_config with
        Gp_service.Server.cache_capacity = 2 };
    tuning =
      { Node.default_tuning with
        service_time = 0.6;
        service_time_hit = 0.12;
        hot_capacity = (if promote then 8 else 0);
        hot_promote_after =
          (if not promote then 0 else if quick then 45 else 300);
        hot_spread = 2 };
    arrivals =
      Some
        (Arrivals.burst ~seed ~rate:2.0 ~burst_rate:30.0 ~burst_from:50.0
           ~burst_until:1.0e6 n) }

let flood_reqs ~seed n =
  reqs ~mix:[ (Request.Kclosure, 1) ] ~zipf:1.7 ~keyspace:60 ~seed n

let flood_n ~quick = scale ~quick 4000

let hotkey_flood =
  {
    name = "hotkey_flood";
    summary =
      "a sustained flood on a zipf-headed 60-key space: the \
       space-saving detector must promote the hot key to replicated \
       reads, corroborated by the fleet hot-key signal";
    build =
      (fun ~quick ~seed ->
        let n = flood_n ~quick in
        let config = flood_config ~quick ~seed ~promote:true n in
        (* Corroboration runs both ways, but against different bars:
           the fleet flags a key hot only when it drew >= 2x the mean
           dispatch traffic — a bar the retry storm around the top key
           inflates — so every fleet-hot key must have been promoted,
           while of the promoted keys only the FIRST (the detector's
           earliest, hottest find) must clear the fleet bar. *)
        let checks r =
          let v = ref [] in
          if r.Cluster.r_promotions = 0 then
            v := "flood promoted no hot keys" :: !v;
          let signal = List.map fst (Fleet.hot_keys r) in
          List.iter
            (fun k ->
              if not (List.mem k r.Cluster.r_promoted_keys) then
                v := Printf.sprintf "fleet-hot key %S was never promoted" k
                     :: !v)
            signal;
          (match r.Cluster.r_promoted_keys with
           | first :: _ when not (List.mem first signal) ->
             v :=
               Printf.sprintf
                 "first promoted key %S absent from the fleet hot-key \
                  signal"
                 first
               :: !v
           | _ -> ());
          List.rev !v
        in
        base_spec ~config ~reqs:(flood_reqs ~seed n) ~checks ());
  }

let stampede =
  {
    name = "stampede";
    summary =
      "cache stampede: definitions load slowly, then a read flood hits \
       the same few keys — memoization must coalesce the herd";
    build =
      (fun ~quick ~seed ->
        let n_w = if quick then 6 else 12 in
        let n_r = scale ~quick 2000 in
        let writes =
          reqs ~mix:[ (Request.Kparse, 1) ] ~keyspace:4 ~seed n_w
        in
        let reads =
          reqs
            ~mix:[ (Request.Kcheck, 3); (Request.Koptimize, 2) ]
            ~zipf:2.0 ~keyspace:6 ~seed:(seed + 1) n_r
        in
        let arr_w = Arrivals.uniform ~start:1.0 ~interval:2.0 n_w in
        let arr_r = Arrivals.poisson ~start:30.0 ~seed ~rate:40.0 n_r in
        let config =
          { Cluster.default_config with
            replicas = 6;
            seed;
            tuning =
              { Node.default_tuning with
                service_time = 1.0;
                service_time_hit = 0.02 };
            arrivals = Some (Array.append arr_w arr_r) }
        in
        let checks r =
          let miss = 1.0 -. Cluster.hit_ratio r in
          if miss > 0.5 then
            [ Printf.sprintf
                "stampede was not coalesced: miss ratio %.2f > 0.50" miss ]
          else []
        in
        base_spec ~config ~reqs:(Array.append writes reads) ~checks ());
  }

let elastic =
  {
    name = "elastic";
    summary =
      "mid-run membership: two replicas join under load, one retires — \
       key movement must stay within the minimal-movement bound";
    build =
      (fun ~quick ~seed ->
        let n = scale ~quick 2400 in
        let at i = if quick then float_of_int (20 * i) else float_of_int (130 * i) in
        let config =
          { Cluster.default_config with
            replicas = 4;
            seed;
            tuning =
              { Node.default_tuning with
                service_time = 0.1;
                service_time_hit = 0.01 };
            arrivals = Some (Arrivals.poisson ~seed ~rate:3.0 n);
            elastic =
              [ { Node.el_at = at 1; el_join = true; el_replica = 5 };
                { Node.el_at = at 2; el_join = true; el_replica = 6 };
                { Node.el_at = at 3; el_join = false; el_replica = 1 } ] }
        in
        let checks r =
          let v = ref [] in
          if r.Cluster.r_joined <> 2 then
            v := Printf.sprintf "joined %d of 2" r.Cluster.r_joined :: !v;
          if r.Cluster.r_left <> 1 then
            v := Printf.sprintf "left %d of 1" r.Cluster.r_left :: !v;
          if r.Cluster.r_moved_keys > r.Cluster.r_moved_bound then
            v :=
              Printf.sprintf "moved %d keys, minimal-movement bound %d"
                r.Cluster.r_moved_keys r.Cluster.r_moved_bound
              :: !v;
          if r.Cluster.r_handoffs = 0 then
            v := "join performed no state handoff" :: !v;
          List.rev !v
        in
        base_spec ~config ~reqs:(reqs ~seed n) ~checks ());
  }

let tenants =
  {
    name = "tenants";
    summary =
      "three tenants share 6 replicas behind a bounded queue; tenant c \
       floods, the door sheds — and no tenant may fall below its \
       declared service floor";
    build =
      (fun ~quick ~seed ->
        let n_ab = scale ~quick 600 in
        let n_c = scale ~quick 1200 in
        let a = Arrivals.poisson ~seed ~rate:1.5 n_ab in
        let b = Arrivals.poisson ~seed:(seed + 1) ~rate:1.5 n_ab in
        (* At quick scale c has 150 requests; a burst from t=80 would
           hold only about 70 of them, too few to fill the queue at
           every seed, so the quick burst starts earlier. *)
        let c =
          Arrivals.burst ~seed:(seed + 2) ~rate:1.0 ~burst_rate:30.0
            ~burst_from:(if quick then 10.0 else 80.0) ~burst_until:120.0 n_c
        in
        let tagged = Arrivals.merge [ a; b; c ] in
        let per_tenant =
          [| reqs ~seed n_ab;
             reqs ~seed:(seed + 1) n_ab;
             reqs ~zipf:1.6 ~keyspace:12 ~seed:(seed + 2) n_c |]
        in
        let cursors = Array.make 3 0 in
        let stream =
          Array.map
            (fun (ti, _) ->
              let i = cursors.(ti) in
              cursors.(ti) <- i + 1;
              per_tenant.(ti).(i))
            tagged
        in
        let config =
          { Cluster.default_config with
            replicas = 6;
            seed;
            tuning =
              { Node.default_tuning with
                service_time = 0.3;
                service_time_hit = 0.03;
                queue_bound = 48;
                shed_backlog = 6.0 };
            arrivals = Some (Arrivals.times tagged) }
        in
        let checks r =
          if Cluster.shed_total r = 0 then
            [ "the flood was absorbed without shedding — the bounded \
               queue never engaged" ]
          else []
        in
        base_spec ~config ~reqs:stream
          ~tenants:
            ( [| "a"; "b"; "c" |],
              Arrivals.tenant_of tagged,
              [| 0.85; 0.85; 0.25 |] )
          ~checks ());
  }

let million =
  {
    name = "million";
    summary =
      "the headline: a million open-loop requests across 32 replicas, \
       every answer audited against a single-node replay";
    build =
      (fun ~quick ~seed ->
        let n = if quick then 20_000 else 1_000_000 in
        let pool =
          reqs ~mix:read_heavy_mix ~seed (if quick then 500 else 3000)
        in
        let config =
          { Cluster.default_config with
            replicas = 32;
            seed;
            max_time = 1.0e6;
            max_events = 60_000_000;
            arrivals = Some (Arrivals.poisson ~seed ~rate:50.0 n) }
        in
        let checks r =
          if Cluster.shed_total r > 0 then
            [ Printf.sprintf "unexpected shed at scale: %d"
                (Cluster.shed_total r) ]
          else []
        in
        base_spec ~config ~reqs:(tiled ~seed ~pool n) ~checks ());
  }

let catalog =
  [ steady; diurnal; hotkey_flood; stampede; elastic; tenants; million ]

let find n = List.find_opt (fun t -> String.equal t.name n) catalog

(* ---------------------------------------------------------------- *)
(* Running                                                           *)
(* ---------------------------------------------------------------- *)

let tenant_stats spec r =
  let k = Array.length spec.sp_tenant_names in
  if k = 0 then []
  else begin
    let total = Array.make k 0 and served = Array.make k 0 in
    let shed = Array.make k 0 in
    Array.iteri
      (fun rid rc ->
        let ti = spec.sp_tenant_of rid in
        total.(ti) <- total.(ti) + 1;
        match rc with
        | Some rc when rc.Node.rc_shed -> shed.(ti) <- shed.(ti) + 1
        | Some _ -> served.(ti) <- served.(ti) + 1
        | None -> ())
      r.Cluster.r_records;
    List.init k (fun ti ->
        {
          tn_name = spec.sp_tenant_names.(ti);
          tn_requests = total.(ti);
          tn_served = served.(ti);
          tn_shed = shed.(ti);
          tn_ratio =
            (if total.(ti) = 0 then 1.0
             else float_of_int served.(ti) /. float_of_int total.(ti));
          tn_floor = spec.sp_floors.(ti);
        })
  end

let run ?(quick = false) ?(seed = 1) ?(audit = false) t =
  let spec = t.build ~quick ~seed in
  let r = Cluster.run ~config:spec.sp_config spec.sp_reqs in
  let au = if audit then Some (Cluster.audit r) else None in
  let stats = tenant_stats spec r in
  let violations =
    (if r.Cluster.r_completed <> Array.length spec.sp_reqs then
       [ Printf.sprintf "completed %d of %d requests" r.Cluster.r_completed
           (Array.length spec.sp_reqs) ]
     else [])
    @ List.concat_map
        (fun tn ->
          if tn.tn_ratio < tn.tn_floor then
            [ Printf.sprintf
                "tenant %s served %.2f, below its declared floor %.2f"
                tn.tn_name tn.tn_ratio tn.tn_floor ]
          else [])
        stats
    @ spec.sp_checks r
    @ (match au with
       | Some a when not (Cluster.audit_ok a) ->
         [ Printf.sprintf "audit failed: %d missing, %d divergent"
             a.Cluster.au_missing
             (List.length a.Cluster.au_divergences) ]
       | _ -> [])
  in
  {
    o_name = t.name;
    o_replicas = spec.sp_config.Cluster.replicas;
    o_requests = Array.length spec.sp_reqs;
    o_completed = r.Cluster.r_completed;
    o_shed = Cluster.shed_total r;
    o_shed_ratio = Cluster.shed_ratio r;
    o_peak_queue = r.Cluster.r_peak_inflight;
    o_p50 = Cluster.latency_percentile r 0.5;
    o_p99 = Cluster.latency_percentile r 0.99;
    o_max = Cluster.max_latency r;
    o_hit_ratio = Cluster.hit_ratio r;
    o_promotions = r.Cluster.r_promotions;
    o_promoted = r.Cluster.r_promoted_keys;
    o_joined = r.Cluster.r_joined;
    o_left = r.Cluster.r_left;
    o_handoffs = r.Cluster.r_handoffs;
    o_moved = r.Cluster.r_moved_keys;
    o_moved_bound = r.Cluster.r_moved_bound;
    o_tenants = stats;
    o_violations = violations;
    o_audit = au;
    o_result = r;
  }

let pp_outcome ppf o =
  Fmt.pf ppf "scenario %s: %d requests over %d replicas@." o.o_name
    o.o_requests o.o_replicas;
  Fmt.pf ppf
    "  completed %d, shed %d (%.2f%%), peak queue %d@."
    o.o_completed o.o_shed
    (100.0 *. o.o_shed_ratio)
    o.o_peak_queue;
  Fmt.pf ppf "  latency (sim): p50 %.2f, p99 %.2f, max %.2f; hits %.1f%%@."
    o.o_p50 o.o_p99 o.o_max
    (100.0 *. o.o_hit_ratio);
  if o.o_promotions > 0 then
    Fmt.pf ppf "  hot keys promoted: %d (%s)@." o.o_promotions
      (String.concat ", " o.o_promoted);
  if o.o_joined + o.o_left > 0 then
    Fmt.pf ppf
      "  elastic: %d joined, %d left, %d handoffs; moved %d keys (bound \
       %d)@."
      o.o_joined o.o_left o.o_handoffs o.o_moved o.o_moved_bound;
  List.iter
    (fun tn ->
      Fmt.pf ppf
        "  tenant %s: %d requests, served %.2f (floor %.2f), shed %d@."
        tn.tn_name tn.tn_requests tn.tn_ratio tn.tn_floor tn.tn_shed)
    o.o_tenants;
  (match o.o_audit with
   | None -> ()
   | Some a ->
     Fmt.pf ppf "  audit: %d compared, %d missing, %d shed, %d divergent@."
       a.Cluster.au_compared a.Cluster.au_missing a.Cluster.au_shed
       (List.length a.Cluster.au_divergences));
  match o.o_violations with
  | [] -> Fmt.pf ppf "  PASS@."
  | vs ->
    List.iter (fun v -> Fmt.pf ppf "  VIOLATION: %s@." v) vs;
    Fmt.pf ppf "  FAIL@."
