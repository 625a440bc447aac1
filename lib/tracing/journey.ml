(* Cross-node trace assembly: take one completed-span list per node (the
   per-node rings collected after a cluster run), group spans by the
   "trace" attribute stamped at emission, and rebuild each trace's
   causal tree. Span ids are cluster-global (one counter), so a parent
   reference resolves across node boundaries; simulated time is globally
   consistent, so interval checks are meaningful across nodes.

   Orphans — spans whose parent id never got recorded, e.g. because the
   message that would have closed the parent was dropped — are surfaced
   on the journey, never silently attached to a root. *)

module Trace = Gp_telemetry.Trace

type tree = { t_node : int; t_span : Trace.span; t_children : tree list }

type journey = {
  j_trace : int;
  j_roots : tree list; (* parentless spans' trees, start order *)
  j_orphans : (int * Trace.span) list; (* (node, span) with missing parent *)
  j_spans : int; (* total spans in the trace *)
}

let trace_attr sp =
  match List.assoc_opt "trace" sp.Trace.sp_attrs with
  | Some s -> int_of_string_opt s
  | None -> None

(* Children sort by (start, id): id breaks ties deterministically for
   zero-duration spans emitted at the same simulated instant. *)
let span_order (_, a) (_, b) =
  let c = Float.compare a.Trace.sp_start_ns b.Trace.sp_start_ns in
  if c <> 0 then c else Int.compare a.Trace.sp_id b.Trace.sp_id

let assemble lanes =
  let by_trace : (int, (int * Trace.span) list ref) Hashtbl.t =
    Hashtbl.create 64
  in
  let trace_order = ref [] in
  List.iter
    (fun (node, sps) ->
      List.iter
        (fun sp ->
          match trace_attr sp with
          | None -> ()
          | Some tid ->
            let cell =
              match Hashtbl.find_opt by_trace tid with
              | Some c -> c
              | None ->
                let c = ref [] in
                Hashtbl.add by_trace tid c;
                trace_order := tid :: !trace_order;
                c
            in
            cell := (node, sp) :: !cell)
        sps)
    lanes;
  let assemble_one tid =
    let entries = List.rev !(Hashtbl.find by_trace tid) in
    let present = Hashtbl.create 16 in
    List.iter
      (fun (_, sp) -> Hashtbl.replace present sp.Trace.sp_id ())
      entries;
    let kids = Hashtbl.create 16 in
    List.iter
      (fun ((_, sp) as e) ->
        match sp.Trace.sp_parent with
        | Some p when Hashtbl.mem present p ->
          Hashtbl.replace kids p
            (e :: (try Hashtbl.find kids p with Not_found -> []))
        | _ -> ())
      entries;
    let children p =
      (try List.rev (Hashtbl.find kids p) with Not_found -> [])
      |> List.sort span_order
    in
    let rec build (node, sp) =
      { t_node = node;
        t_span = sp;
        t_children = List.map build (children sp.Trace.sp_id) }
    in
    let roots =
      List.filter (fun (_, sp) -> sp.Trace.sp_parent = None) entries
      |> List.sort span_order
    in
    let orphans =
      List.filter
        (fun (_, sp) ->
          match sp.Trace.sp_parent with
          | None -> false
          | Some p -> not (Hashtbl.mem present p))
        entries
      |> List.sort span_order
    in
    { j_trace = tid;
      j_roots = List.map build roots;
      j_orphans = orphans;
      j_spans = List.length entries }
  in
  List.rev_map assemble_one !trace_order
  |> List.sort (fun a b -> Int.compare a.j_trace b.j_trace)

let find journeys tid = List.find_opt (fun j -> j.j_trace = tid) journeys

(* Well-formedness of an assembled journey:
   - exactly one root, and every parent resolved (no orphans);
   - child intervals respect causality: a child starts no earlier than
     its parent, and a SAME-NODE child is fully contained in its
     parent's interval. A cross-node child may legitimately outlive its
     parent — a serve delivered after the router already closed the
     attempt as retried, or a replicate fan-out parented under a
     zero-duration serve — so only the start bound applies there. *)
let well_formed j =
  let eps = 1e-6 in
  let ( let* ) r f = match r with Ok () -> f () | Error _ as e -> e in
  let* () =
    match j.j_roots with
    | [ _ ] -> Ok ()
    | roots ->
      Error
        (Printf.sprintf "trace %d: %d roots (want exactly 1)" j.j_trace
           (List.length roots))
  in
  let* () =
    match j.j_orphans with
    | [] -> Ok ()
    | (node, sp) :: _ ->
      Error
        (Printf.sprintf
           "trace %d: %d orphaned span(s), first %S (id %d, node %d, \
            missing parent %d)"
           j.j_trace (List.length j.j_orphans) sp.Trace.sp_name
           sp.Trace.sp_id node
           (match sp.Trace.sp_parent with Some p -> p | None -> -1))
  in
  let rec check parent t =
    let sp = t.t_span in
    let* () =
      match parent with
      | None -> Ok ()
      | Some p ->
        let psp = p.t_span in
        if sp.Trace.sp_start_ns +. eps < psp.Trace.sp_start_ns then
          Error
            (Printf.sprintf
               "trace %d: span %d (%s) starts before its parent %d"
               j.j_trace sp.Trace.sp_id sp.Trace.sp_name psp.Trace.sp_id)
        else if
          t.t_node = p.t_node
          && sp.Trace.sp_start_ns +. sp.Trace.sp_dur_ns
             > psp.Trace.sp_start_ns +. psp.Trace.sp_dur_ns +. eps
        then
          Error
            (Printf.sprintf
               "trace %d: same-node span %d (%s) ends after its parent %d"
               j.j_trace sp.Trace.sp_id sp.Trace.sp_name psp.Trace.sp_id)
        else Ok ()
    in
    List.fold_left
      (fun acc c ->
        let* () = acc in
        check (Some t) c)
      (Ok ()) t.t_children
  in
  List.fold_left
    (fun acc r ->
      let* () = acc in
      check None r)
    (Ok ()) j.j_roots

let root_name j =
  match j.j_roots with
  | { t_span; _ } :: _ -> Some t_span.Trace.sp_name
  | [] -> None
