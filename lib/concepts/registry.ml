(* The registry holds everything the concept engine knows about a world of
   types: concept definitions, per-type structural descriptions (associated
   types), a global table of (free) operations, and declared models.

   Structural information supports ML-signature-style checking; declared
   models support Haskell-type-class-style nominal conformance; the paper
   (Section 2.1) discusses both. Our checker verifies the structure behind
   every nominal declaration, so a declared model is a *checked claim*. *)

type type_desc = {
  td_name : string;
  td_assoc : (string * Ctype.t) list; (* associated type bindings *)
  td_doc : string;
}

type model = {
  mo_concept : string;
  mo_args : Ctype.t list; (* ground argument types *)
  mo_axioms_asserted : string list;
      (* axioms of the concept the declarer vouches for (or has proved) *)
  mo_complexity : (string * Complexity.t) list;
      (* declared bound per operation name *)
  mo_doc : string;
}

(* (name, argument types) keys, compared with Ctype.equal. Ctype
   equality is structural, so the polymorphic hash is consistent. *)
module Key2_tbl = Hashtbl.Make (struct
  type t = string * Ctype.t list

  let equal (c1, a1) (c2, a2) =
    String.equal c1 c2
    && List.length a1 = List.length a2
    && List.for_all2 Ctype.equal a1 a2

  let hash = Hashtbl.hash
end)

type memo = ..

type t = {
  mutable concepts : (string * Concept.t) list;
  mutable types : (string * type_desc) list;
  mutable ops : Concept.signature list;
  mutable models : model list;
  mutable refinement_edges : (string * string) list;
      (* (refining, refined) pairs, derived from concept definitions *)
  mutable axioms_certified : (string * string * Ctype.t list) list;
      (* (concept, axiom, args) discharged by a checked proof *)
  mutable generation : int;
      (* bumped on every declaration; memo caches key on it so a mutated
         registry can never serve a stale closure *)
  derived : derived;
}

(* What the registry derives from its declarations, kept with it, so a
   dropped registry takes its index and memo along.

   A fork starts out sharing its parent's lists. Every mutation replaces
   a list field (prepending, or [remove_assoc] + prepend in [set_assoc])
   and never edits a cell, so while the parent stands still its lists
   stay a physical suffix of the fork's, and the fork's own declarations
   are the cells in front of them. *)
and derived = {
  parent : t option; (* [Some] for a fork: the scope it extends *)
  mutable index : index option;
  mutable memo : memo option; (* see [memo] *)
}

and index = {
  ix_generation : int;
  ix_concepts : (string, Concept.t) Hashtbl.t;
  ix_types : (string, type_desc) Hashtbl.t;
  ix_ops : Concept.signature list Key2_tbl.t;
      (* (name, params) -> matching ops, most recent first *)
  ix_models : model Key2_tbl.t; (* (concept, args) -> most recent model *)
  ix_reachable : (string, (string, unit) Hashtbl.t) Hashtbl.t;
      (* transitive-refinement closure: names reachable via >= 1 edge *)
  ix_parent : (t * int) option;
      (* [Some (p, g)] for a fork's delta index over parent [p] at
         generation [g]: a miss falls through to [p] *)
}

let no_derived parent = { parent; index = None; memo = None }

let create () =
  { concepts = []; types = []; ops = []; models = []; refinement_edges = [];
    axioms_certified = []; generation = 0; derived = no_derived None }

let fork p = { p with derived = no_derived (Some p) }

let memo t make =
  let d = t.derived in
  match d.memo with
  | Some m -> m
  | None ->
    let m = make () in
    d.memo <- Some m;
    m

let generation t = t.generation
let touch t = t.generation <- t.generation + 1

exception Duplicate of string

let declare_concept t (c : Concept.t) =
  if List.mem_assoc c.Concept.name t.concepts then
    raise (Duplicate ("concept " ^ c.Concept.name));
  t.concepts <- (c.Concept.name, c) :: t.concepts;
  t.refinement_edges <-
    List.map (fun (r, _) -> (c.Concept.name, r)) c.Concept.refines
    @ t.refinement_edges;
  touch t

let declare_type ?(doc = "") ?(assoc = []) t name =
  if List.mem_assoc name t.types then raise (Duplicate ("type " ^ name));
  t.types <- (name, { td_name = name; td_assoc = assoc; td_doc = doc }) :: t.types;
  touch t

let declare_op ?(doc = "") t op_name op_params op_return =
  t.ops <-
    { Concept.op_name; op_params; op_return; op_doc = doc } :: t.ops;
  touch t

let declare_model ?(doc = "") ?(axioms = []) ?(complexity = []) t concept args
    =
  t.models <-
    {
      mo_concept = concept;
      mo_args = args;
      mo_axioms_asserted = axioms;
      mo_complexity = complexity;
      mo_doc = doc;
    }
    :: t.models;
  touch t

let axiom_certified t ~concept ~axiom ~args =
  List.exists
    (fun (c, a, g) ->
      String.equal c concept && String.equal a axiom
      && List.equal Ctype.equal g args)
    t.axioms_certified

let certify_axiom t ~concept ~axiom ~args =
  if not (axiom_certified t ~concept ~axiom ~args) then begin
    t.axioms_certified <- (concept, axiom, args) :: t.axioms_certified;
    touch t
  end

(* [remove_assoc] copies only the cells in front of the type's entry, so
   a fork's list still ends in its parent's cells. *)
let set_assoc t name assoc =
  let td = List.assoc name t.types in
  t.types <-
    (name, { td with td_assoc = assoc }) :: List.remove_assoc name t.types;
  touch t

(* ------------------------------------------------------------------ *)
(* Generation-keyed indexes                                            *)
(* ------------------------------------------------------------------ *)

(* Hot lookups (find_concept / find_type / find_model / find_ops /
   refines) go through hashtable indexes instead of scanning the
   association lists. A registry keeps its index in [derived] and
   rebuilds it lazily whenever its generation counter has moved past the
   one the index was built at. A fork indexes only its own
   declarations. *)

let add_first tbl k v = if not (Hashtbl.mem tbl k) then Hashtbl.add tbl k v

(* Apply [f] to the cells of [l] in front of [stop], most recent first;
   [false] when [l] runs out without reaching [stop]. *)
let rec iter_front f stop l =
  l == stop
  || match l with [] -> false | x :: rest -> f x; iter_front f stop rest

let build_index t =
  let ix_concepts = Hashtbl.create 64 in
  (* the assoc lists are most-recent-first; first occurrence wins *)
  List.iter (fun (name, c) -> add_first ix_concepts name c) t.concepts;
  let ix_types = Hashtbl.create 64 in
  List.iter (fun (name, td) -> add_first ix_types name td) t.types;
  let ix_ops = Key2_tbl.create 64 in
  (* iterate oldest-first and prepend, so buckets end most-recent-first
     like the list scan they replace *)
  List.iter
    (fun (s : Concept.signature) ->
      let key = (s.Concept.op_name, s.Concept.op_params) in
      let prev = Option.value ~default:[] (Key2_tbl.find_opt ix_ops key) in
      Key2_tbl.replace ix_ops key (s :: prev))
    (List.rev t.ops);
  let ix_models = Key2_tbl.create 64 in
  List.iter
    (fun m ->
      let key = (m.mo_concept, m.mo_args) in
      if not (Key2_tbl.mem ix_models key) then Key2_tbl.add ix_models key m)
    t.models;
  let ix_reachable = Hashtbl.create 64 in
  let adj = Hashtbl.create 64 in
  List.iter (fun (x, y) -> Hashtbl.add adj x y) t.refinement_edges;
  List.iter
    (fun (x, _) ->
      if not (Hashtbl.mem ix_reachable x) then begin
        let seen = Hashtbl.create 16 in
        let rec dfs c =
          List.iter
            (fun y ->
              if not (Hashtbl.mem seen y) then begin
                Hashtbl.add seen y ();
                dfs y
              end)
            (Hashtbl.find_all adj c)
        in
        dfs x;
        Hashtbl.add ix_reachable x seen
      end)
    t.refinement_edges;
  { ix_generation = t.generation; ix_concepts; ix_types; ix_ops; ix_models;
    ix_reachable; ix_parent = None }

(* A root registry's rebuilds: its first lookup, or its first since the
   generation moved. Counted process-wide, always, so a declare-heavy
   workload that rebuilds the index shows without a telemetry sink. *)
let rebuilds = ref 0
let index_rebuilds () = !rebuilds

(* A delta index for a fork: only the cells in front of the parent's
   current lists, with misses falling through to the parent. [None]
   when the fork's lists do not extend the parent's (the parent moved
   on after the fork), or when a parent refinement edge points at a
   concept the fork declares (that would extend the parent's closure);
   the caller then indexes the fork whole. *)
let rec delta_index t p =
  let ix_concepts = Hashtbl.create 8 in
  let ix_types = Hashtbl.create 8 in
  let ix_models = Key2_tbl.create 8 in
  let ix_ops = Key2_tbl.create 8 in
  let new_ops = ref [] in
  let adj = Hashtbl.create 8 in
  let extends =
    iter_front (fun (n, c) -> add_first ix_concepts n c) p.concepts
      t.concepts
    && delta_types t p ix_types
    && iter_front (fun s -> new_ops := s :: !new_ops) p.ops t.ops
    && iter_front
         (fun m ->
           let key = (m.mo_concept, m.mo_args) in
           if not (Key2_tbl.mem ix_models key) then
             Key2_tbl.add ix_models key m)
         p.models t.models
    && iter_front (fun (x, y) -> Hashtbl.add adj x y) p.refinement_edges
         t.refinement_edges
    && (Hashtbl.length adj = 0
       || not
            (List.exists (fun (_, y) -> Hashtbl.mem adj y) p.refinement_edges))
  in
  if not extends then None
  else begin
    (* oldest first, so each bucket ends most recent first, ahead of
       the parent's bucket for the same key *)
    List.iter
      (fun (s : Concept.signature) ->
        let key = (s.Concept.op_name, s.Concept.op_params) in
        let prev =
          match Key2_tbl.find_opt ix_ops key with
          | Some bucket -> bucket
          | None -> find_ops p s.Concept.op_name s.Concept.op_params
        in
        Key2_tbl.replace ix_ops key (s :: prev))
      !new_ops;
    (* New edges start only at the fork's new concepts, and no parent
       edge reaches those, so a parent concept's closure is the
       parent's; a new concept's closure walks its own edges and unions
       the parent's closure wherever it steps onto a parent concept. *)
    let ix_reachable = Hashtbl.create 8 in
    Hashtbl.iter
      (fun x _ ->
        if not (Hashtbl.mem ix_reachable x) then begin
          let seen = Hashtbl.create 16 in
          let rec visit y =
            if not (Hashtbl.mem seen y) then begin
              Hashtbl.add seen y ();
              List.iter visit (Hashtbl.find_all adj y);
              match reachable p y with
              | Some r -> Hashtbl.iter (fun z () -> Hashtbl.replace seen z ()) r
              | None -> ()
            end
          in
          List.iter visit (Hashtbl.find_all adj x);
          Hashtbl.add ix_reachable x seen
        end)
      adj;
    Some
      { ix_generation = t.generation; ix_concepts; ix_types; ix_ops; ix_models;
        ix_reachable; ix_parent = Some (p, p.generation) }
  end

(* Types are the one list a fork may rebuild in part: re-declaring a
   parent type copies the cells in front of it ([remove_assoc]). When
   the walk misses the parent's list, it has indexed every type of the
   fork, each shadowing the parent's entry; that is sound as long as no
   parent type went missing. *)
and delta_types t p ix_types =
  iter_front (fun (n, td) -> add_first ix_types n td) p.types t.types
  || List.for_all (fun (n, _) -> Hashtbl.mem ix_types n) p.types

and index_of t =
  let d = t.derived in
  match d.index with
  | Some ({ ix_parent = None; _ } as ix) when ix.ix_generation = t.generation
    ->
    ix
  | Some ({ ix_parent = Some (p, g); _ } as ix)
    when ix.ix_generation = t.generation && p.generation = g ->
    ix
  | Some _ | None ->
    let ix =
      match d.parent with
      | None ->
        incr rebuilds;
        build_index t
      | Some p -> (
        match delta_index t p with Some ix -> ix | None -> build_index t)
    in
    d.index <- Some ix;
    ix

(* Ground operations matching name + parameter types. Several ops may
   share name and parameters but differ in return type (e.g. the nullary
   "id" of every monoid carrier), so callers needing the return type
   filter over all matches. *)
and find_ops t name params =
  let ix = index_of t in
  match Key2_tbl.find_opt ix.ix_ops (name, params) with
  | Some bucket -> bucket
  | None -> (
    match ix.ix_parent with Some (p, _) -> find_ops p name params | None -> [])

and reachable t a =
  let ix = index_of t in
  match Hashtbl.find_opt ix.ix_reachable a with
  | Some _ as r -> r
  | None -> (
    match ix.ix_parent with Some (p, _) -> reachable p a | None -> None)

let rec find_concept t name =
  let ix = index_of t in
  match Hashtbl.find_opt ix.ix_concepts name with
  | Some _ as found -> found
  | None -> (
    match ix.ix_parent with Some (p, _) -> find_concept p name | None -> None)

let rec find_type t name =
  let ix = index_of t in
  match Hashtbl.find_opt ix.ix_types name with
  | Some _ as found -> found
  | None -> (
    match ix.ix_parent with Some (p, _) -> find_type p name | None -> None)

let rec find_model t concept args =
  let ix = index_of t in
  match Key2_tbl.find_opt ix.ix_models (concept, args) with
  | Some _ as found -> found
  | None -> (
    match ix.ix_parent with
    | Some (p, _) -> find_model p concept args
    | None -> None)

let concepts t = List.map snd t.concepts

(* Read from the lists, so asking between declarations rebuilds no
   index. *)
let has_concept t name = List.mem_assoc name t.concepts
let has_type t name = List.mem_assoc name t.types
let models t = t.models

(* Resolve a type expression to ground normal form: associated-type
   projections are looked up in the type descriptions. *)
let rec resolve t ty =
  match ty with
  | Ctype.Named _ | Ctype.Var _ -> Some ty
  | Ctype.App (f, args) ->
    let rec go acc = function
      | [] -> Some (Ctype.App (f, List.rev acc))
      | a :: rest -> (
        match resolve t a with
        | Some a' -> go (a' :: acc) rest
        | None -> None)
    in
    go [] args
  | Ctype.Assoc (base, field) -> (
    match resolve t base with
    | Some (Ctype.Named n) -> (
      match find_type t n with
      | Some td -> (
        match List.assoc_opt field td.td_assoc with
        | Some bound -> resolve t bound
        | None -> None)
      | None -> None)
    | Some _ | None -> None)

let find_op t name params =
  match find_ops t name params with [] -> None | s :: _ -> Some s

(* Transitive refinement: does concept [a] (directly or indirectly) refine
   concept [b]? Reflexive. Answered from the precomputed closure. *)
let refines t a b =
  String.equal a b
  ||
  match reachable t a with
  | None -> false
  | Some reachable -> Hashtbl.mem reachable b

(* Refinement depth of a concept: length of the longest refinement chain
   below it. Used for most-refined-wins overload resolution. *)
let refinement_depth t name =
  let rec depth visited c =
    if List.mem c visited then 0
    else
      match find_concept t c with
      | None -> 0
      | Some con ->
        let below =
          List.map (fun (r, _) -> depth (c :: visited) r) con.Concept.refines
        in
        1 + List.fold_left max 0 below
  in
  depth [] name
