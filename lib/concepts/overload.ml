(* Concept-based overloading (paper Section 2.1).

   "It is often desirable to select from several implementations of a
   function based solely on the concepts modeled by the arguments." A
   generic function holds a list of candidate implementations, each guarded
   by a concept constraint on the argument types. Resolution checks which
   guards hold and picks the most refined candidate; incomparable maxima are
   an ambiguity error (reported, not silently broken).

   Implementations are dynamically typed ([dyn] is an open variant so each
   client library registers its own payloads); the *selection logic* is the
   point being reproduced, and it is fully static in the concept algebra. *)

type dyn = ..
type dyn += Unit

type candidate = {
  cand_name : string; (* human-readable label, e.g. "sort/random-access" *)
  cand_guard : string; (* concept the argument types must model *)
  cand_impl : dyn list -> dyn;
}

type generic = {
  gen_name : string;
  mutable candidates : candidate list;
}

type resolution =
  | Selected of candidate * candidate list (* winner, losers that matched *)
  | Ambiguous of candidate list
  | No_match of (string * Check.report) list
      (* per-candidate failure reports: call-site diagnostics *)

let create gen_name = { gen_name; candidates = [] }

let add_candidate g ~name ~guard impl =
  g.candidates <- g.candidates @ [ { cand_name = name; cand_guard = guard; cand_impl = impl } ]

(* The leading arguments a candidate's guard concept takes. *)
let guard_args reg c args =
  match Registry.find_concept reg c.cand_guard with
  | Some con ->
    let arity = List.length con.Concept.params in
    if List.length args > arity then List.filteri (fun i _ -> i < arity) args
    else args
  | None -> args

(* Resolve against the actual argument types. A candidate matches when
   [args] model its guard concept. The default mode is Nominal: purely
   semantic refinements (Forward vs Input iterators) are invisible to
   structural checking, and overload resolution must respect the *declared*
   modeling relation, as type-class instances and C++ concept maps do.
   Among matches, the winner must have a guard that transitively refines
   every other matching guard; otherwise the call is ambiguous. *)
let resolve ?(mode = Check.Nominal) reg g args =
  let reports =
    List.map
      (fun c ->
        (c, Check.check ~mode reg c.cand_guard (guard_args reg c args)))
      g.candidates
  in
  let matches = List.filter (fun (_, r) -> Check.ok r) reports in
  match matches with
  | [] -> No_match (List.map (fun (c, r) -> (c.cand_name, r)) reports)
  | [ (c, _) ] -> Selected (c, [])
  | _ ->
    let cands = List.map fst matches in
    let best =
      List.filter
        (fun c ->
          List.for_all
            (fun c' -> Registry.refines reg c.cand_guard c'.cand_guard)
            cands)
        cands
    in
    (match best with
    | [ w ] -> Selected (w, List.filter (fun c -> c != w) cands)
    | _ -> Ambiguous cands)

(* Ablation: naive first-match resolution, ignoring refinement ranking.
   Retained so the ablation bench can demonstrate why most-refined-wins
   matters (a general candidate listed first shadows the specialised
   one). *)
let resolve_first_match ?(mode = Check.Nominal) reg g args =
  let matching =
    List.find_opt
      (fun c ->
        Check.ok (Check.check ~mode reg c.cand_guard (guard_args reg c args)))
      g.candidates
  in
  match matching with
  | Some c -> Selected (c, [])
  | None -> No_match []

(* Resolve and invoke. *)
let call ?mode reg g ~types ~values =
  match resolve ?mode reg g types with
  | Selected (c, _) -> Ok (c.cand_impl values)
  | Ambiguous cs ->
    Error
      (Fmt.str "ambiguous call to %s: candidates %a" g.gen_name
         Fmt.(list ~sep:comma string)
         (List.map (fun c -> c.cand_name) cs))
  | No_match reports ->
    Error
      (Fmt.str
         "@[<v2>no candidate of %s matches argument types <%a>:@,%a@]"
         g.gen_name
         Fmt.(list ~sep:comma Ctype.pp)
         types
         Fmt.(
           list ~sep:cut (fun ppf (name, r) ->
               pf ppf "@[<v2>candidate %s:@,%a@]" name Check.pp_report r))
         reports)

let pp_resolution ppf = function
  | Selected (c, losers) ->
    Fmt.pf ppf "selected %s (guard %s)%a" c.cand_name c.cand_guard
      Fmt.(
        list ~sep:nop (fun ppf l ->
            pf ppf ", over %s (guard %s)" l.cand_name l.cand_guard))
      losers
  | Ambiguous cs ->
    Fmt.pf ppf "ambiguous between %a"
      Fmt.(list ~sep:comma string)
      (List.map (fun c -> c.cand_name) cs)
  | No_match _ -> Fmt.string ppf "no matching candidate"
