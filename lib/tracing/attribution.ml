(* Tail-latency attribution: decompose each completed request's
   end-to-end latency into causal segments read off its journey tree.

   The router's cluster.request root bounds the total. Direct children
   partition the interesting time: the winning attempt (outcome=ok) is
   service, attempts that were retried or superseded are retry cost,
   park spans (queued with no leader) are election stall. Whatever the
   children do not cover — scheduling gaps, the retry back-off the
   router sits out between attempts — is queueing. All times are
   simulated units (ring values are sim ×1e3). *)

module Trace = Gp_telemetry.Trace

type segments = {
  sg_rid : int;
  sg_kind : string;  (** request kind, from the root span's attrs *)
  sg_total : float;  (** arrival to completion, simulated units *)
  sg_queue : float;  (** time covered by no attempt/park span *)
  sg_retry : float;  (** attempts that were retried or superseded *)
  sg_stall : float;  (** parked waiting for a coordinator *)
  sg_service : float;  (** the attempt that produced the answer *)
  sg_attempts : int;
}

type cause = Queueing | Retry | Election_stall | Service

let cause_name = function
  | Queueing -> "queueing"
  | Retry -> "retry"
  | Election_stall -> "election-stall"
  | Service -> "service"

(* First maximum wins, in blame order: an equal split blames the
   mechanism (queueing, retry, stall) before the useful work. *)
let dominant sg =
  let cands =
    [ (Queueing, sg.sg_queue); (Retry, sg.sg_retry);
      (Election_stall, sg.sg_stall); (Service, sg.sg_service) ]
  in
  fst
    (List.fold_left
       (fun (bc, bv) (c, v) -> if v > bv then (c, v) else (bc, bv))
       (List.hd cands) (List.tl cands))

let attr sp k = List.assoc_opt k sp.Trace.sp_attrs

let of_journey (j : Journey.journey) =
  match j.Journey.j_roots with
  | [ root ] when String.equal root.Journey.t_span.Trace.sp_name
                    "cluster.request" ->
    let rsp = root.Journey.t_span in
    let sg =
      List.fold_left
        (fun sg (child : Journey.tree) ->
          let sp = child.Journey.t_span in
          let d = sp.Trace.sp_dur_ns /. 1e3 in
          match sp.Trace.sp_name with
          | "cluster.attempt" -> (
            let sg = { sg with sg_attempts = sg.sg_attempts + 1 } in
            match attr sp "outcome" with
            | Some "ok" -> { sg with sg_service = sg.sg_service +. d }
            | _ -> { sg with sg_retry = sg.sg_retry +. d })
          | "cluster.park" -> { sg with sg_stall = sg.sg_stall +. d }
          | _ -> sg)
        { sg_rid = j.Journey.j_trace;
          sg_kind =
            (match attr rsp "kind" with Some k -> k | None -> "?");
          sg_total = rsp.Trace.sp_dur_ns /. 1e3;
          sg_queue = 0.0; sg_retry = 0.0; sg_stall = 0.0;
          sg_service = 0.0; sg_attempts = 0 }
        root.Journey.t_children
    in
    Some
      { sg with
        sg_queue =
          Float.max 0.0
            (sg.sg_total -. sg.sg_service -. sg.sg_retry -. sg.sg_stall) }
  | _ -> None

let of_journeys js = List.filter_map of_journey js

let slowest ?(k = 10) sgs =
  let sorted =
    List.stable_sort
      (fun a b -> compare (b.sg_total, a.sg_rid) (a.sg_total, b.sg_rid))
      sgs
  in
  List.filteri (fun i _ -> i < k) sorted

let pp_table ppf sgs =
  Fmt.pf ppf
    "  %-5s %-8s %9s %9s %9s %9s %9s  %-4s %s@." "rid" "kind" "total"
    "queue" "retry" "stall" "service" "att" "dominant";
  List.iter
    (fun sg ->
      Fmt.pf ppf "  %-5d %-8s %9.2f %9.2f %9.2f %9.2f %9.2f  %-4d %s@."
        sg.sg_rid sg.sg_kind sg.sg_total sg.sg_queue sg.sg_retry
        sg.sg_stall sg.sg_service sg.sg_attempts
        (cause_name (dominant sg)))
    sgs

type summary = {
  su_requests : int;
  su_by_cause : (cause * int) list;  (** dominant-cause census *)
  su_mean_total : float;
  su_mean_queue : float;
  su_mean_retry : float;
  su_mean_stall : float;
  su_mean_service : float;
}

let summarize sgs =
  let n = List.length sgs in
  let fn = float_of_int (Int.max 1 n) in
  let tot f = List.fold_left (fun a sg -> a +. f sg) 0.0 sgs /. fn in
  let census c =
    List.length (List.filter (fun sg -> dominant sg = c) sgs)
  in
  { su_requests = n;
    su_by_cause =
      List.map
        (fun c -> (c, census c))
        [ Queueing; Retry; Election_stall; Service ];
    su_mean_total = tot (fun sg -> sg.sg_total);
    su_mean_queue = tot (fun sg -> sg.sg_queue);
    su_mean_retry = tot (fun sg -> sg.sg_retry);
    su_mean_stall = tot (fun sg -> sg.sg_stall);
    su_mean_service = tot (fun sg -> sg.sg_service) }

let pp_summary ppf su =
  Fmt.pf ppf
    "%d requests attributed: mean total %.2f = queue %.2f + retry %.2f \
     + stall %.2f + service %.2f@."
    su.su_requests su.su_mean_total su.su_mean_queue su.su_mean_retry
    su.su_mean_stall su.su_mean_service;
  Fmt.pf ppf "dominant causes:";
  List.iter
    (fun (c, n) -> if n > 0 then Fmt.pf ppf " %s=%d" (cause_name c) n)
    su.su_by_cause;
  Fmt.pf ppf "@."
