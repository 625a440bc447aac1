(* The collected tracing artifact of one cluster run: per-node span
   lanes plus the run shape, with a deterministic JSONL dump format the
   CLI writes and reads back. The wire context ("trace/span") is
   rendered and parsed by Gp_telemetry.Context's cursor primitives —
   the same parse-is-the-write-path discipline the request wire uses. *)

module Trace = Gp_telemetry.Trace
module Context = Gp_telemetry.Context
module Json = Gp_telemetry.Json
module Cluster = Gp_cluster.Cluster

type t = {
  ts_replicas : int;
  ts_n : int; (* workload size: trace ids below this are requests *)
  ts_seed : int;
  ts_lanes : (int * Trace.span list) list; (* node order *)
}

(* Elastic joiners occupy lanes above the initial replicas, so the
   replica count covers the highest lane: the dump's nodes stay in range
   when it is loaded. *)
let of_result (r : Cluster.result) =
  { ts_replicas =
      Int.max r.Cluster.r_config.Cluster.replicas
        (List.length r.Cluster.r_traces - 1);
    ts_n = Array.length r.Cluster.r_requests;
    ts_seed = r.Cluster.r_config.Cluster.seed;
    ts_lanes = r.Cluster.r_traces }

let journeys ts = Journey.assemble ts.ts_lanes
let request_journey ts rid =
  List.find_opt (fun j -> j.Journey.j_trace = rid) (journeys ts)
let is_request ts tid = tid >= 0 && tid < ts.ts_n

(* -------------------------------------------------------------- *)
(* Dump / load                                                     *)
(* -------------------------------------------------------------- *)

(* Times are dumped in simulated units (ring values are sim ×1e3) with
   a fixed six-decimal rendering: deterministic, monotone, and wide
   enough that reloaded intervals keep their nesting relations. The
   "trace/span" pair rides as the [ctx] field, written through
   Context.render_into straight into the line buffer. *)
let span_line buf ~node sp =
  let trace =
    match Journey.trace_attr sp with Some tid -> tid | None -> 0
  in
  Buffer.add_string buf "{\"node\":";
  Json.add_int buf node;
  Buffer.add_string buf ",\"ctx\":\"";
  Context.render_into buf (Context.v ~trace ~span:sp.Trace.sp_id);
  Buffer.add_string buf "\",\"parent\":";
  Json.add_int buf (match sp.Trace.sp_parent with Some p -> p | None -> 0);
  Buffer.add_string buf ",\"name\":";
  Buffer.add_string buf (Json.str sp.Trace.sp_name);
  Buffer.add_string buf ",\"start\":";
  Buffer.add_string buf
    (Printf.sprintf "%.6f" (sp.Trace.sp_start_ns /. 1e3));
  Buffer.add_string buf ",\"dur\":";
  Buffer.add_string buf (Printf.sprintf "%.6f" (sp.Trace.sp_dur_ns /. 1e3));
  let attrs =
    List.filter_map
      (fun (k, v) -> if k = "trace" then None else Some (k, Json.Str v))
      sp.Trace.sp_attrs
  in
  Buffer.add_string buf ",\"attrs\":";
  Buffer.add_string buf (Json.to_string (Json.Obj attrs));
  Buffer.add_string buf "}\n"

let dump ts =
  let buf = Buffer.create 65536 in
  let total =
    List.fold_left (fun a (_, sps) -> a + List.length sps) 0 ts.ts_lanes
  in
  Buffer.add_string buf
    (Printf.sprintf
       "{\"gp_trace\":1,\"replicas\":%d,\"n\":%d,\"seed\":%d,\"spans\":%d}\n"
       ts.ts_replicas ts.ts_n ts.ts_seed total);
  List.iter
    (fun (node, sps) -> List.iter (span_line buf ~node) sps)
    ts.ts_lanes;
  Buffer.contents buf

(* The header's shape: replicas within [Cluster.max_replicas], so the
   lanes it sizes are bounded whatever the dump claims. *)
let trace_header line =
  let header = Json.parse line in
  if Json.field "gp_trace" header <> Some (Json.Int 1) then
    Json.fail "not a gp_trace dump (bad header)";
  let replicas = Json.int_field "replicas" header in
  if replicas < 0 then Json.fail "trace dump: negative replicas";
  if replicas > Cluster.max_replicas then
    Json.fail "trace dump: replicas %d above %d" replicas Cluster.max_replicas;
  (replicas, Json.int_field "n" header, Json.int_field "seed" header)

let span_of_line ~replicas line =
  let obj = Json.parse line in
  let node = Json.int_field "node" obj in
  if node < 0 || node > replicas then Json.fail "trace dump: node out of range";
  let ctx =
    match Context.of_string (Json.str_field "ctx" obj) with
    | Some c -> c
    | None -> Json.fail "trace dump: bad ctx"
  in
  let parent = Json.int_field "parent" obj in
  let attrs =
    List.map
      (function
        | k, Json.Str v -> (k, v)
        | k, _ -> Json.fail "trace dump: non-string attr %s" k)
      (Json.obj_field "attrs" obj)
  in
  ( node,
    { Trace.sp_id = Context.span ctx;
      sp_parent = (if parent = 0 then None else Some parent);
      sp_name = Json.str_field "name" obj;
      sp_start_ns = Json.num_field "start" obj *. 1e3;
      sp_dur_ns = Json.num_field "dur" obj *. 1e3;
      sp_attrs = ("trace", string_of_int (Context.trace ctx)) :: attrs;
      sp_gc = None } )

let load doc =
  match Json.lines doc with
  | [] -> Error "empty trace dump"
  | header :: spans -> (
    try
      let replicas, n, seed = Json.on_line header trace_header in
      let lanes = Array.make (replicas + 1) [] in
      List.iter
        (fun line ->
          let node, sp = Json.on_line line (span_of_line ~replicas) in
          lanes.(node) <- sp :: lanes.(node))
        spans;
      Ok
        { ts_replicas = replicas;
          ts_n = n;
          ts_seed = seed;
          ts_lanes =
            List.init (replicas + 1) (fun i -> (i, List.rev lanes.(i))) }
    with Json.Error e -> Error e)

(* -------------------------------------------------------------- *)
(* Chrome export: one pid lane per node                            *)
(* -------------------------------------------------------------- *)

let node_name ts node =
  if node = 0 then "router"
  else if ts.ts_replicas > 0 then Printf.sprintf "replica-%d" node
  else Printf.sprintf "node-%d" node

let to_chrome ts =
  Trace.to_chrome_json_lanes
    (List.map
       (fun (node, sps) -> (node + 1, node_name ts node, sps))
       ts.ts_lanes)

(* -------------------------------------------------------------- *)
(* Validation                                                      *)
(* -------------------------------------------------------------- *)

type validation = {
  v_requests : int; (* request traces with at least one span *)
  v_well_formed : int;
  v_malformed : (int * string) list; (* request traces failing checks *)
  v_aux : int; (* election/probe traces *)
  v_aux_orphans : int; (* aux traces carrying orphan spans *)
}

let validation_ok v = v.v_malformed = []

(* A request trace must be a well-formed journey whose single root is
   the router's cluster.request span. Aux traces (elections, probes)
   may legitimately carry orphans — a dropped reply leaves a child
   whose parent never closed — so they are only counted, never
   failed. *)
let validate ts =
  let js = journeys ts in
  List.fold_left
    (fun v j ->
      if is_request ts j.Journey.j_trace then begin
        let verdict =
          match Journey.well_formed j with
          | Error e -> Error e
          | Ok () -> (
            match Journey.root_name j with
            | Some "cluster.request" -> Ok ()
            | Some other ->
              Error
                (Printf.sprintf "trace %d: root is %s, not cluster.request"
                   j.Journey.j_trace other)
            | None ->
              Error (Printf.sprintf "trace %d: no root" j.Journey.j_trace))
        in
        match verdict with
        | Ok () ->
          { v with v_requests = v.v_requests + 1;
                   v_well_formed = v.v_well_formed + 1 }
        | Error e ->
          { v with v_requests = v.v_requests + 1;
                   v_malformed = v.v_malformed @ [ (j.Journey.j_trace, e) ] }
      end
      else
        { v with v_aux = v.v_aux + 1;
                 v_aux_orphans =
                   (v.v_aux_orphans
                   + if j.Journey.j_orphans <> [] then 1 else 0) })
    { v_requests = 0; v_well_formed = 0; v_malformed = []; v_aux = 0;
      v_aux_orphans = 0 }
    js

let pp_validation ppf v =
  Fmt.pf ppf
    "request traces: %d assembled, %d well-formed, %d malformed@."
    v.v_requests v.v_well_formed
    (List.length v.v_malformed);
  List.iter (fun (_, e) -> Fmt.pf ppf "  MALFORMED %s@." e) v.v_malformed;
  Fmt.pf ppf
    "aux traces (elections, probes): %d, %d with orphaned spans \
     (dropped parents, surfaced)@."
    v.v_aux v.v_aux_orphans

(* -------------------------------------------------------------- *)
(* Tree view                                                       *)
(* -------------------------------------------------------------- *)

let pp_journey ts ppf (j : Journey.journey) =
  Fmt.pf ppf "trace %d%s: %d span%s@." j.Journey.j_trace
    (if is_request ts j.Journey.j_trace then
       Printf.sprintf " (request #%d)" j.Journey.j_trace
     else " (aux)")
    j.Journey.j_spans
    (if j.Journey.j_spans = 1 then "" else "s");
  let rec pp_node depth (t : Journey.tree) =
    let sp = t.Trace.t_span in
    Fmt.pf ppf "  %-10s %s%-*s t=%-9.2f +%-8.2f"
      (node_name ts t.Trace.t_tag)
      (String.make (2 * depth) ' ')
      (Int.max 1 (24 - (2 * depth)))
      sp.Trace.sp_name
      (sp.Trace.sp_start_ns /. 1e3)
      (sp.Trace.sp_dur_ns /. 1e3);
    List.iter
      (fun (k, v) ->
        if not (String.equal k "trace") then Fmt.pf ppf " %s=%s" k v)
      sp.Trace.sp_attrs;
    Fmt.pf ppf "@.";
    List.iter (pp_node (depth + 1)) t.Trace.t_children
  in
  List.iter (pp_node 0) j.Journey.j_roots;
  List.iter
    (fun (node, sp) ->
      Fmt.pf ppf "  %-10s ORPHAN %s t=%.2f (missing parent %d)@."
        (node_name ts node) sp.Trace.sp_name
        (sp.Trace.sp_start_ns /. 1e3)
        (match sp.Trace.sp_parent with Some p -> p | None -> 0))
    j.Journey.j_orphans
