(* Fleet metrics, read off a cluster run's result: the engine's
   per-node traffic, the world's counts and the records. The world
   counts on every run, traced or not, so the report needs no tracing
   and there is nothing to merge. *)

module Histogram = Gp_telemetry.Histogram
module Cluster = Gp_cluster.Cluster
module Node = Gp_cluster.Node
module Engine = Gp_distsim.Engine
module Request = Gp_service.Request

(* Hot keys: the per-rid dispatch counts grouped by content key, a key
   flagged when it drew at least twice the mean over the dispatched
   keys. Sorted hottest first, key breaks ties — deterministic. *)
let hot_keys (r : Cluster.result) =
  let by_key = Hashtbl.create 64 in
  Array.iteri
    (fun rid d ->
      if d > 0 then begin
        let k = Request.key r.Cluster.r_requests.(rid) in
        match Hashtbl.find_opt by_key k with
        | Some c -> c := !c + d
        | None -> Hashtbl.add by_key k (ref d)
      end)
    r.Cluster.r_counts.Node.rid_dispatches;
  let keyed = Hashtbl.fold (fun k c acc -> (k, !c) :: acc) by_key [] in
  let total = List.fold_left (fun a (_, v) -> a + v) 0 keyed in
  let mean = float_of_int total /. float_of_int (List.length keyed) in
  List.filter (fun (_, v) -> float_of_int v >= 2.0 *. mean) keyed
  |> List.sort (fun (ka, va) (kb, vb) -> compare (vb, ka) (va, kb))

type percentiles = {
  pc_count : int;
  pc_p50 : float;
  pc_p90 : float;
  pc_p99 : float;
  pc_max : float;
}

let request_percentiles (r : Cluster.result) =
  let h = Histogram.create () in
  Array.iter
    (function
      | Some rc when not rc.Node.rc_shed ->
        Histogram.observe h (rc.Node.rc_done -. rc.Node.rc_arrive)
      | _ -> ())
    r.Cluster.r_records;
  if Histogram.count h = 0 then None
  else
    Some
      { pc_count = Histogram.count h;
        pc_p50 = Histogram.quantile h 0.5;
        pc_p90 = Histogram.quantile h 0.9;
        pc_p99 = Histogram.quantile h 0.99;
        pc_max = Histogram.max_value h }

let pp_report ppf (r : Cluster.result) =
  let em = r.Cluster.r_metrics and c = r.Cluster.r_counts in
  let nodes = Array.length em.Engine.sent_by in
  Fmt.pf ppf "fleet: %d nodes (router + %d replicas)@." nodes (nodes - 1);
  Array.iteri
    (fun i sent ->
      Fmt.pf ppf "  node %d (%s): sent %d, delivered %d@." i
        (if i = 0 then "router" else "replica")
        sent em.Engine.delivered_to.(i))
    em.Engine.sent_by;
  (match request_percentiles r with
   | None -> ()
   | Some pc ->
     Fmt.pf ppf
       "request latency (sim units, %d requests): p50 %.2f  p90 %.2f  \
        p99 %.2f  max %.2f@."
       pc.pc_count pc.pc_p50 pc.pc_p90 pc.pc_p99 pc.pc_max);
  Fmt.pf ppf "traffic: serves %d, replicates %d, retries %d, elections %d@."
    c.Node.serves c.Node.replicates c.Node.retries r.Cluster.r_elections;
  if Array.exists (fun d -> d > 0) c.Node.dispatched_to then begin
    Fmt.pf ppf "dispatches by shard:";
    Array.iteri
      (fun i d -> if d > 0 then Fmt.pf ppf " %d=%d" i d)
      c.Node.dispatched_to;
    Fmt.pf ppf "@."
  end;
  match hot_keys r with
  | [] -> Fmt.pf ppf "hot keys: none (no key above 2x mean traffic)@."
  | hot ->
    Fmt.pf ppf "hot keys (>= 2x mean dispatch traffic):";
    List.iteri (fun i (k, v) -> if i < 8 then Fmt.pf ppf " %s=%d" k v) hot;
    Fmt.pf ppf "@."
