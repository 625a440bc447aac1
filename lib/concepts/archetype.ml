(* Concept archetypes (paper Sections 2.1 and 3.1).

   A syntactic archetype is a *minimal* model of a concept: it provides
   exactly the associated types and operations the concept requires and
   nothing else. Instantiating a generic algorithm with an archetype detects
   requirements the algorithm uses but the concept does not state.

   [instantiate] synthesises such a model directly into a registry: fresh
   ground types for the parameters and every associated type, plus exactly
   the required operations. The returned argument types can then be passed
   to {!Check.check} for any *other* concept the algorithm claims to need:
   if the check fails, the algorithm over-requires.

   Semantic archetypes (most-restrictive behaviour, e.g. a strictly
   single-pass Input Iterator) are runtime objects; gp_sequence and
   gp_stllint build them on top of the descriptor returned here. *)

type instantiation = {
  arch_concept : string;
  arch_args : Ctype.t list; (* the fresh ground types, one per parameter *)
  arch_types : string list; (* every fresh type created, incl. assoc types *)
}

let counter = ref 0

let fresh_name base =
  incr counter;
  Printf.sprintf "%s#arch%d" base !counter

(* Instantiate concept [name] minimally into [reg]. Fails on unknown
   concepts. Refined concepts and nested Models constraints are satisfied by
   recursively instantiating their requirements onto the same fresh types. *)
let rec instantiate reg name =
  match Registry.find_concept reg name with
  | None -> invalid_arg ("Archetype.instantiate: unknown concept " ^ name)
  | Some con ->
    let args =
      List.map (fun p -> Ctype.Named (fresh_name (name ^ "." ^ p)))
        con.Concept.params
    in
    let created = populate reg con args in
    {
      arch_concept = name;
      arch_args = args;
      arch_types =
        List.filter_map (function Ctype.Named n -> Some n | _ -> None) args
        @ created;
    }

(* Populate [reg] so that [args] model [con]: declare the argument types (if
   new), bind fresh associated types, declare required operations, and
   recursively satisfy refined/nested concepts *on those same types*. Returns
   the list of fresh type names created. *)
and populate reg (con : Concept.t) args =
  let created = ref [] in
  let env = List.combine con.Concept.params args in
  let ensure_type ?(assoc = []) n =
    match Registry.find_type reg n with
    | Some _ ->
      List.iter
        (fun (f, ty) ->
          (* extend the type's assoc bindings *)
          match Registry.find_type reg n with
          | Some td when not (List.mem_assoc f td.Registry.td_assoc) ->
            Registry.set_assoc reg n ((f, ty) :: td.Registry.td_assoc)
          | _ -> ())
        assoc
    | None ->
      Registry.declare_type reg n ~assoc ~doc:"archetype";
      created := n :: !created
  in
  List.iter
    (function Ctype.Named n -> ensure_type n | _ -> ())
    args;
  (* associated types: bind a fresh ground type on the first parameter *)
  List.iter
    (fun req ->
      match req with
      | Concept.Assoc_type { at_name; _ } -> (
        match List.hd args with
        | Ctype.Named owner ->
          let already =
            match Registry.find_type reg owner with
            | Some td -> List.mem_assoc at_name td.Registry.td_assoc
            | None -> false
          in
          if not already then begin
            let fresh = fresh_name (con.Concept.name ^ "." ^ at_name) in
            ensure_type fresh;
            ensure_type owner ~assoc:[ (at_name, Ctype.Named fresh) ]
          end
        | _ -> ())
      | Concept.Operation _ | Concept.Constraint _ | Concept.Axiom _
      | Concept.Complexity_guarantee _ ->
        ())
    con.Concept.requirements;
  (* operations *)
  List.iter
    (fun req ->
      match req with
      | Concept.Operation s ->
        let resolve ty =
          let ty = Ctype.subst env ty in
          match Registry.resolve reg ty with Some g -> g | None -> ty
        in
        let params = List.map resolve s.Concept.op_params in
        let ret = resolve s.Concept.op_return in
        (match Registry.find_op reg s.Concept.op_name params with
        | Some _ -> ()
        | None ->
          Registry.declare_op reg s.Concept.op_name params ret
            ~doc:"archetype op")
      | _ -> ())
    con.Concept.requirements;
  (* same-type constraints: unify by binding the unresolved projection to
     the resolved side (or both to one fresh type). Must run before Models
     satisfaction so nested concepts reuse the unified binding instead of
     inventing a fresh one. *)
  let bind_projection ty ground =
    match ty with
    | Ctype.Assoc (base, field) -> (
      match Registry.resolve reg (Ctype.subst env base) with
      | Some (Ctype.Named owner) -> ensure_type owner ~assoc:[ (field, ground) ]
      | Some _ | None -> ())
    | Ctype.Named _ | Ctype.Var _ | Ctype.App _ -> ()
  in
  let unify a b =
    let a = Ctype.subst env a and b = Ctype.subst env b in
    match Registry.resolve reg a, Registry.resolve reg b with
    | Some _, Some _ -> () (* both ground; Check reports any mismatch *)
    | Some g, None -> bind_projection b g
    | None, Some g -> bind_projection a g
    | None, None ->
      let fresh = Ctype.Named (fresh_name (con.Concept.name ^ ".unified")) in
      (match fresh with
      | Ctype.Named nm -> ensure_type nm
      | _ -> ());
      bind_projection a fresh;
      bind_projection b fresh
  in
  List.iter
    (fun req ->
      let cs =
        match req with
        | Concept.Assoc_type { at_constraints; _ } -> at_constraints
        | Concept.Constraint c -> [ c ]
        | _ -> []
      in
      List.iter
        (function
          | Concept.Same_type (a, b) -> unify a b
          | Concept.Models _ -> ())
        cs)
    con.Concept.requirements;
  (* nested obligations: refined concepts and Models constraints *)
  let satisfy cname cargs =
    let cargs =
      List.map
        (fun a ->
          let a = Ctype.subst env a in
          match Registry.resolve reg a with Some g -> g | None -> a)
        cargs
    in
    match Registry.find_concept reg cname with
    | Some sub -> created := populate reg sub cargs @ !created
    | None -> ()
  in
  List.iter (fun (rname, rargs) -> satisfy rname rargs) con.Concept.refines;
  List.iter
    (fun req ->
      let cs =
        match req with
        | Concept.Assoc_type { at_constraints; _ } -> at_constraints
        | Concept.Constraint c -> [ c ]
        | _ -> []
      in
      List.iter
        (function
          | Concept.Models (cname, cargs) -> satisfy cname cargs
          | Concept.Same_type _ -> ())
        cs)
    con.Concept.requirements;
  (* declare the model nominally, vouching for all axioms (an archetype is
     by definition the most restrictive conforming model) *)
  (match Registry.find_model reg con.Concept.name args with
  | Some _ -> ()
  | None ->
    Registry.declare_model reg con.Concept.name args
      ~axioms:(List.map (fun a -> a.Concept.ax_name) (Concept.axioms con))
      ~doc:"archetype model");
  !created

(* Over-requirement detection: instantiate [declared] and check whether its
   archetype also satisfies [used]. If yes, [used] is implied; if not, an
   algorithm declared to need only [declared] but actually using [used]
   over-requires — exactly what archetype instantiation catches in C++.

   The check runs in Nominal mode: semantic refinements (e.g. Forward vs
   Input iterators, which differ only in the multipass axiom) are invisible
   to structural checking, and the archetype nominally models exactly its
   declared concept's refinement chain. *)
let implies reg ~declared ~used =
  let inst = instantiate reg declared in
  match Registry.find_concept reg used with
  | None -> invalid_arg ("Archetype.implies: unknown concept " ^ used)
  | Some target ->
    let n_needed = List.length target.Concept.params in
    let args =
      if List.length inst.arch_args >= n_needed then
        List.filteri (fun i _ -> i < n_needed) inst.arch_args
      else inst.arch_args
    in
    Check.models ~mode:Check.Nominal reg used args
