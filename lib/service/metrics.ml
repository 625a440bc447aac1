(* Serving observability, as a thin veneer over the shared telemetry
   registry (Gp_telemetry.Metrics).

   The decade-bucket histogram code that used to live here moved into
   Gp_telemetry.Histogram, generalised to configurable log-scale buckets
   with within-bucket interpolated quantiles — the report below prints
   interpolated p50/p90 instead of the old bucket-upper-bound labels.
   Every server metric is an ordinary registry family, so the same data
   renders three ways: the human text [report], the machine
   [report_json], and the Prometheus exposition [to_prometheus]. *)

module M = Gp_telemetry.Metrics
module Histogram = Gp_telemetry.Histogram
module Trace = Gp_telemetry.Trace

let latency_family = "gp_request_latency_ns"

(* Per-kind resolved series handles. [M.inc]/[M.observe] re-resolve the
   series on every call (label sort + rendered-key allocation); the
   per-request path instead resolves each kind's four series on its first
   observation, files them under the kind's slot, and bumps the unboxed
   cells directly — no allocation and no string compared per request. *)
type kind_handles = {
  kh_total : M.cell;
  kh_ok : M.cell;
  kh_cached : M.cell;
  kh_latency : Histogram.t;
}

(* one slot per [Request.kind], then one for lines that did not parse *)
let slot_count = List.length Request.all_kinds + 1

let slot = function
  | None -> slot_count - 1
  | Some k -> (
    match (k : Request.kind) with
    | Kcheck -> 0
    | Kparse -> 1
    | Klint -> 2
    | Koptimize -> 3
    | Kprove -> 4
    | Kclosure -> 5
    | Kmatvec -> 6
    | Kmatmul -> 7
    | Ksolve -> 8)

type t = {
  reg : M.t;
  mutable kinds : string list; (* first-observation order, for the report *)
  handles : kind_handles option array; (* by [slot] *)
}

let create () =
  let reg = M.create () in
  (* service latencies: 100ns .. 10s at 5 buckets/decade (ratio ~1.58),
     same span the old decade table covered but 10x the resolution *)
  M.set_histogram_factory reg (fun _ ->
      Histogram.create ~lo:100.0 ~hi:1e10 ~buckets_per_decade:5 ());
  M.declare reg ~kind:M.Counter ~name:"gp_requests_total"
    ~help:"Requests handled, by kind.";
  M.declare reg ~kind:M.Counter ~name:"gp_requests_ok_total"
    ~help:"Requests answered without error, by kind.";
  M.declare reg ~kind:M.Counter ~name:"gp_requests_cached_total"
    ~help:"Requests served from a response cache, by kind.";
  M.declare reg ~kind:M.Counter ~name:"gp_request_errors_total"
    ~help:"Request errors, by kind and error code.";
  M.declare reg ~kind:M.Histo ~name:latency_family
    ~help:"Request service time in nanoseconds, by kind.";
  { reg; kinds = []; handles = Array.make slot_count None }

let registry t = t.reg

let kind_label = function
  | None -> "invalid"
  | Some k -> Request.kind_name k

let handles_for t kind =
  let i = slot kind in
  match t.handles.(i) with
  | Some h -> h
  | None ->
    let kind = kind_label kind in
    t.kinds <- t.kinds @ [ kind ];
    let labels = [ ("kind", kind) ] in
    let h =
      { kh_total = M.counter_handle t.reg ~labels "gp_requests_total";
        kh_ok = M.counter_handle t.reg ~labels "gp_requests_ok_total";
        kh_cached = M.counter_handle t.reg ~labels "gp_requests_cached_total";
        kh_latency = M.histogram_handle t.reg ~labels latency_family }
    in
    t.handles.(i) <- Some h;
    h

let observe t ~kind ~(result : (Request.payload, Request.error) result)
    ~cached ~ns =
  let h = handles_for t kind in
  h.kh_total.M.v <- h.kh_total.M.v +. 1.0;
  (match result with
  | Ok _ -> h.kh_ok.M.v <- h.kh_ok.M.v +. 1.0
  | Error e ->
    (* error series fan out by (kind, code); errors are off the hot
       path, so resolving per call is fine *)
    M.inc t.reg
      ~labels:
        [ ("kind", kind_label kind);
          ("code", Request.error_code_name e.Request.code) ]
      "gp_request_errors_total");
  if cached then h.kh_cached.M.v <- h.kh_cached.M.v +. 1.0;
  Histogram.observe h.kh_latency ns

let requests t = int_of_float (M.total t.reg "gp_requests_total")
let errors t = int_of_float (M.total t.reg "gp_request_errors_total")

let kind_value t ?(extra = []) name kind =
  int_of_float (M.value t.reg ~labels:(("kind", kind) :: extra) name)

(* errors for one kind, summed across codes *)
let kind_errors t kind =
  List.fold_left
    (fun acc (labels, v) ->
      if List.assoc_opt "kind" labels = Some kind then acc + int_of_float v
      else acc)
    0
    (M.counter_series t.reg "gp_request_errors_total")

let errors_by_code t =
  List.fold_left
    (fun acc (labels, v) ->
      match List.assoc_opt "code" labels with
      | None -> acc
      | Some code ->
        let n = try List.assoc code acc with Not_found -> 0 in
        (code, n + int_of_float v) :: List.remove_assoc code acc)
    []
    (M.counter_series t.reg "gp_request_errors_total")

let report ?(cache_stats = []) t =
  let buf = Buffer.create 1024 in
  let ppf = Format.formatter_of_buffer buf in
  Fmt.pf ppf "requests by kind@.";
  Fmt.pf ppf "  %-9s %8s %8s %8s %8s %9s %9s %9s %9s@." "kind" "count" "ok"
    "err" "cached" "mean" "p50" "p90" "max";
  List.iter
    (fun kind ->
      let labels = [ ("kind", kind) ] in
      let h = M.find_histogram t.reg ~labels latency_family in
      let stat f = match h with None -> nan | Some h -> f h in
      Fmt.pf ppf "  %-9s %8d %8d %8d %8d %9s %9s %9s %9s@." kind
        (kind_value t "gp_requests_total" kind)
        (kind_value t "gp_requests_ok_total" kind)
        (kind_errors t kind)
        (kind_value t "gp_requests_cached_total" kind)
        (Fmt.str "%a" Trace.pp_dur (stat Histogram.mean))
        (Fmt.str "%a" Trace.pp_dur (stat (fun h -> Histogram.quantile h 0.50)))
        (Fmt.str "%a" Trace.pp_dur (stat (fun h -> Histogram.quantile h 0.90)))
        (Fmt.str "%a" Trace.pp_dur (stat Histogram.max_value)))
    t.kinds;
  let all_errors = errors_by_code t in
  if all_errors <> [] then begin
    Fmt.pf ppf "@.errors by code@.";
    List.iter
      (fun (code, n) -> Fmt.pf ppf "  %-15s %d@." code n)
      (List.sort compare all_errors)
  end;
  if cache_stats <> [] then begin
    Fmt.pf ppf "@.caches (hit ratio over lookups)@.";
    List.iter (fun st -> Fmt.pf ppf "  %a@." Lru.pp_stats st) cache_stats
  end;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let report_json ?(cache_stats = []) ?gc t =
  let module J = Gp_telemetry.Json in
  let cache_json (st : Lru.stats) =
    Printf.sprintf
      "{\"name\":%s,\"capacity\":%d,\"size\":%d,\"hits\":%d,\"misses\":%d,\"evictions\":%d}"
      (J.str st.Lru.st_name) st.Lru.st_capacity st.Lru.st_size st.Lru.st_hits
      st.Lru.st_misses st.Lru.st_evictions
  in
  Printf.sprintf
    "{\"requests\":%d,\"errors\":%d,%s\"caches\":[%s],\"registry\":%s}"
    (requests t) (errors t)
    (match gc with None -> "" | Some g -> "\"gc\":" ^ g ^ ",")
    (String.concat "," (List.map cache_json cache_stats))
    (M.to_json t.reg)

let to_prometheus t = M.to_prometheus t.reg
