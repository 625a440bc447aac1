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

type tree = int Trace.tree

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

(* Spans grouped by trace id in one pass over the lanes; each group is
   node-tagged and handed to [Trace.forest], whose roots are split into
   the parentless spans and the orphans. An orphan's own subtree is not
   attached anywhere: the orphan is listed, its descendants are not. *)
let assemble lanes =
  let by_trace = Hashtbl.create 64 in
  List.iter
    (fun (node, sps) ->
      List.iter
        (fun sp ->
          match trace_attr sp with
          | Some tid -> Hashtbl.add by_trace tid (node, sp)
          | None -> ())
        sps)
    lanes;
  let by_start a b = Trace.compare_start a.Trace.t_span b.Trace.t_span in
  let assemble_one tid =
    let entries = List.rev (Hashtbl.find_all by_trace tid) in
    let roots, orphans =
      List.partition
        (fun t -> t.Trace.t_span.Trace.sp_parent = None)
        (Trace.forest entries)
    in
    { j_trace = tid;
      j_roots = List.sort by_start roots;
      j_orphans =
        List.map
          (fun t -> (t.Trace.t_tag, t.Trace.t_span))
          (List.sort by_start orphans);
      j_spans = List.length entries }
  in
  List.of_seq (Hashtbl.to_seq_keys by_trace)
  |> List.sort_uniq Int.compare
  |> List.map assemble_one

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
    let sp = t.Trace.t_span in
    let* () =
      match parent with
      | None -> Ok ()
      | Some p ->
        let psp = p.Trace.t_span in
        if sp.Trace.sp_start_ns +. eps < psp.Trace.sp_start_ns then
          Error
            (Printf.sprintf
               "trace %d: span %d (%s) starts before its parent %d"
               j.j_trace sp.Trace.sp_id sp.Trace.sp_name psp.Trace.sp_id)
        else if
          t.Trace.t_tag = p.Trace.t_tag
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
      (Ok ()) t.Trace.t_children
  in
  List.fold_left
    (fun acc r ->
      let* () = acc in
      check None r)
    (Ok ()) j.j_roots

let root_name j =
  match j.j_roots with
  | { Trace.t_span; _ } :: _ -> Some t_span.Trace.sp_name
  | [] -> None
