(* Constraint propagation (paper Section 2.3).

   Declaring "G models IncidenceGraph" should implicitly make available every
   constraint that follows: the refined concepts of IncidenceGraph, and the
   constraints IncidenceGraph places on its associated types (edge_type
   models GraphEdge, out_edge_iterator models Iterator, ...). Languages
   without propagation force the programmer to restate the whole closure at
   every generic function (the paper's first_neighbor example, and the 2^n
   blowup of Section 2.4).

   [closure] computes the full implied constraint set; [explicit_size]
   counts how many constraints a language *without* propagation would
   require the programmer to write, which is what experiment C3
   regenerates. *)

module Tel = Gp_telemetry.Tel

type obligation = {
  ob_concept : string;
  ob_args : Ctype.t list; (* in terms of the root's parameters / assoc paths *)
}

let obligation_equal a b =
  String.equal a.ob_concept b.ob_concept
  && List.length a.ob_args = List.length b.ob_args
  && List.for_all2 Ctype.equal a.ob_args b.ob_args

(* All obligations implied by [concept<args>], including itself. [depth]
   bounds recursion through associated types (cyclic concept references such
   as container<->iterator are legal).

   The core is a pure function of a concept-lookup function, not of a
   mutable registry: the same lookup always yields the same closure, which
   is what lets gp_service memoise closures by content key alone.

   Implemented as an explicit worklist with a hashed seen-set (the seed's
   [List.exists obligation_equal] dedup was quadratic in the closure
   size; it survives as the test oracle). Children are pushed as a block
   ahead of the remaining work, so the emission order is exactly the
   recursive descent's depth-first pre-order. *)
module Ob_tbl = Hashtbl.Make (struct
  type t = string * Ctype.t list

  let equal (c1, a1) (c2, a2) =
    String.equal c1 c2
    && List.length a1 = List.length a2
    && List.for_all2 Ctype.equal a1 a2

  (* Ctype equality is structural, so the polymorphic hash agrees *)
  let hash = Hashtbl.hash
end)

let closure_with ?(max_depth = 8) ~lookup concept args =
  Tel.with_span ~name:"concepts.closure"
    ~attrs:(fun () -> [ ("concept", concept) ])
    (fun () ->
      let seen = Ob_tbl.create 64 in
      let acc = ref [] in
      (* items ever enqueued on the worklist, duplicates included — one
         int store per push; written to the span only when enabled *)
      let pushed = ref 1 in
      let rec drain = function
        | [] -> ()
        | (depth, concept, args) :: rest ->
          if depth > max_depth || Ob_tbl.mem seen (concept, args) then
            drain rest
          else begin
            Ob_tbl.add seen (concept, args) ();
            acc := { ob_concept = concept; ob_args = args } :: !acc;
            match lookup concept with
            | None -> drain rest
            | Some con ->
              let env = List.combine con.Concept.params args in
              let refined =
                List.map
                  (fun (rname, rargs) ->
                    (depth + 1, rname, List.map (Ctype.subst env) rargs))
                  con.Concept.refines
              in
              let required =
                List.concat_map
                  (fun req ->
                    let constraints =
                      match req with
                      | Concept.Assoc_type { at_constraints; _ } ->
                        at_constraints
                      | Concept.Constraint c -> [ c ]
                      | Concept.Operation _ | Concept.Axiom _
                      | Concept.Complexity_guarantee _ ->
                        []
                    in
                    List.filter_map
                      (function
                        | Concept.Models (cname, cargs) ->
                          Some
                            (depth + 1, cname, List.map (Ctype.subst env) cargs)
                        | Concept.Same_type _ -> None)
                      constraints)
                  con.Concept.requirements
              in
              pushed := !pushed + List.length refined + List.length required;
              drain (refined @ required @ rest)
          end
      in
      drain [ (0, concept, args) ];
      let obs = List.rev !acc in
      if Tel.is_enabled () then begin
        Tel.attr "size" (string_of_int (List.length obs));
        Tel.attr "worklist_pushes" (string_of_int !pushed)
      end;
      obs)

let closure ?max_depth reg concept args =
  closure_with ?max_depth ~lookup:(Registry.find_concept reg) concept args

(* Canonical cache key for a closure query. The registry's generation
   counter stands in for the lookup function: any declaration bumps it, so
   a stale closure can never be served after the world changes.

   The query is encoded structurally, straight into the caller's
   buffer: every name is length-prefixed and every type list
   count-prefixed, so the encoding is prefix-free and no two queries
   share a key — whatever commas or angle brackets the names contain. *)
let add_name buf s =
  Gp_telemetry.Json.add_int buf (String.length s);
  Buffer.add_char buf ':';
  Buffer.add_string buf s

let rec add_ctype buf = function
  | Ctype.Named s ->
    Buffer.add_char buf 'N';
    add_name buf s
  | Ctype.Var s ->
    Buffer.add_char buf 'V';
    add_name buf s
  | Ctype.Assoc (t, field) ->
    Buffer.add_char buf 'A';
    add_ctype buf t;
    add_name buf field
  | Ctype.App (f, args) ->
    Buffer.add_char buf 'P';
    add_name buf f;
    add_ctypes buf args

and add_ctypes buf ts =
  Gp_telemetry.Json.add_int buf (List.length ts);
  Buffer.add_char buf ':';
  List.iter (add_ctype buf) ts

let add_request_key ?(max_depth = 8) buf reg concept args =
  Buffer.add_string buf "closure|g";
  Gp_telemetry.Json.add_int buf (Registry.generation reg);
  Buffer.add_string buf "|d";
  Gp_telemetry.Json.add_int buf max_depth;
  Buffer.add_char buf '|';
  add_name buf concept;
  add_ctypes buf args

(* Number of constraints the programmer writes with propagation: just the
   root constraint. *)
let declared_size = 1

(* Number of constraints the programmer must write without propagation: the
   whole closure (each "X models C" clause spelled out). *)
let explicit_size ?max_depth reg concept args =
  List.length (closure ?max_depth reg concept args)

(* Associated-type parameter count: how many extra type parameters the
   "one parameter per associated type" emulation (Section 2.2) needs for a
   single use of [concept]. Counts associated types across the closure. *)
let emulation_type_parameters ?max_depth reg concept args =
  let obs = closure ?max_depth reg concept args in
  List.fold_left
    (fun n ob ->
      match Registry.find_concept reg ob.ob_concept with
      | None -> n
      | Some con -> n + List.length (Concept.associated_types con))
    0 obs

let pp_obligation ppf ob =
  Fmt.pf ppf "%a : %s" Fmt.(list ~sep:comma Ctype.pp) ob.ob_args ob.ob_concept
