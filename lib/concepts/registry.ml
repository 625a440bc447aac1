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

type t = {
  mutable concepts : (string * Concept.t) list;
  mutable types : (string * type_desc) list;
  mutable ops : Concept.signature list;
  mutable models : model list;
  mutable refinement_edges : (string * string) list;
      (* (refining, refined) pairs, derived from concept definitions *)
  mutable generation : int;
      (* bumped on every declaration; memo caches key on it so a mutated
         registry can never serve a stale closure *)
  base : base option; (* [Some] for a fork: the scope it extends *)
}

(* A fork starts out sharing its parent's lists. Every mutation replaces
   a list field (prepending, or [remove_assoc] + prepend for a
   re-declared type) and never edits a cell, so while the parent stands
   still its lists stay a physical suffix of the fork's, and the fork's
   own declarations are the cells in front of them. *)
and base = {
  parent : t;
  mutable local : index option;
      (* the fork's index, held here: forks never enter the shared
         side cache *)
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

let create () =
  { concepts = []; types = []; ops = []; models = []; refinement_edges = [];
    generation = 0; base = None }

let fork p = { p with base = Some { parent = p; local = None } }

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

(* ------------------------------------------------------------------ *)
(* Generation-keyed indexes                                            *)
(* ------------------------------------------------------------------ *)

(* Hot lookups (find_concept / find_type / find_model / find_ops /
   refines) go through hashtable indexes instead of scanning the
   association lists. The record type is exposed transparently in the
   .mli and callers such as Lang.load_items mutate its fields directly,
   so a root registry's index lives in a small side cache keyed by
   physical identity and is rebuilt lazily whenever the registry's
   generation counter has moved past the one the index was built at. An
   evicted slot merely costs one rebuild on next use. A fork keeps its
   index in its own [base], indexing only its own declarations. *)

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

let index_cache : (t * index) option array = Array.make 8 None
let index_clock = ref 0

(* A rebuild means the side cache missed: either the registry mutated
   since the cached index (generation bump) or this registry was evicted
   from the 8-slot cache. Counted so an operator can spot declare-heavy
   workloads thrashing the index. *)
let count_rebuild () =
  Gp_telemetry.Tel.count "gp_registry_index_rebuilds_total" 1

let root_index t =
  let slots = Array.length index_cache in
  let rec scan i =
    if i = slots then None
    else
      match index_cache.(i) with
      | Some (r, _) when r == t -> Some i
      | Some _ | None -> scan (i + 1)
  in
  match scan 0 with
  | Some i -> (
    match index_cache.(i) with
    | Some (_, ix) when ix.ix_generation = t.generation -> ix
    | Some _ | None ->
      count_rebuild ();
      let ix = build_index t in
      index_cache.(i) <- Some (t, ix);
      ix)
  | None ->
    count_rebuild ();
    let ix = build_index t in
    let slot = !index_clock mod slots in
    index_clock := !index_clock + 1;
    index_cache.(slot) <- Some (t, ix);
    ix

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
  match t.base with
  | None -> root_index t
  | Some b -> (
    match b.local with
    | Some ({ ix_parent = None; _ } as ix) when ix.ix_generation = t.generation
      ->
      ix
    | Some ({ ix_parent = Some (p, g); _ } as ix)
      when ix.ix_generation = t.generation && p.generation = g ->
      ix
    | Some _ | None ->
      let ix =
        match delta_index t b.parent with
        | Some ix -> ix
        | None -> build_index t
      in
      b.local <- Some ix;
      ix)

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
