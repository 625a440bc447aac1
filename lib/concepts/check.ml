(* Concept checking with call-site-quality diagnostics.

   The paper's Section 2.1 complaint about C++: "passing a non-conforming
   data type usually results in lengthy error messages referring to the
   implementation of the generic function instead of the actual point of
   error". This checker produces structured failures that say exactly which
   requirement of which concept a type fails, so callers (examples, the
   overload resolver, the lint tool) can present the error at the right
   level of abstraction. *)

type failure =
  | Unknown_concept of string
  | Unknown_type of Ctype.t
  | Arity_mismatch of { concept : string; expected : int; got : int }
  | Unresolved_type of { ty : Ctype.t; context : string }
  | Missing_assoc_type of { ty : Ctype.t; assoc : string }
  | Missing_operation of { expected : Concept.signature }
  | Return_type_mismatch of {
      op : string;
      expected : Ctype.t;
      found : Ctype.t;
    }
  | Same_type_violated of { left : Ctype.t; right : Ctype.t }
  | Refinement_failed of {
      concept : string;
      args : Ctype.t list;
      causes : failure list;
    }
  | Nested_model_failed of {
      concept : string;
      args : Ctype.t list;
      causes : failure list;
    }
  | Complexity_too_weak of {
      op : string;
      required : Complexity.t;
      declared : Complexity.t;
    }
  | No_model_declared of { concept : string; args : Ctype.t list }

type warning =
  | Axiom_asserted_not_proved of { concept : string; axiom : string }
  | Axiom_not_asserted of { concept : string; axiom : string }
  | No_complexity_declared of { concept : string; op : string }

type report = {
  rep_concept : string;
  rep_args : Ctype.t list;
  rep_failures : failure list;
  rep_warnings : warning list;
}

let ok report = report.rep_failures = []

type mode =
  | Structural (* ML-signature style: structure alone decides *)
  | Nominal (* Haskell-type-class style: a model declaration is required *)

let rec pp_failure ppf = function
  | Unknown_concept c -> Fmt.pf ppf "unknown concept %s" c
  | Unknown_type ty -> Fmt.pf ppf "unknown type %a" Ctype.pp ty
  | Arity_mismatch { concept; expected; got } ->
    Fmt.pf ppf "concept %s expects %d type argument(s), got %d" concept
      expected got
  | Unresolved_type { ty; context } ->
    Fmt.pf ppf "cannot resolve type %a (%s)" Ctype.pp ty context
  | Missing_assoc_type { ty; assoc } ->
    Fmt.pf ppf "type %a does not provide associated type %s" Ctype.pp ty assoc
  | Missing_operation { expected } ->
    Fmt.pf ppf "no operation %a" Concept.pp_signature expected
  | Return_type_mismatch { op; expected; found } ->
    Fmt.pf ppf "operation %s returns %a where %a is required" op Ctype.pp
      found Ctype.pp expected
  | Same_type_violated { left; right } ->
    Fmt.pf ppf "types %a and %a must be equal" Ctype.pp left Ctype.pp right
  | Refinement_failed { concept; args; causes } ->
    Fmt.pf ppf "@[<v2>refined concept %s<%a> not modeled:@,%a@]" concept
      Fmt.(list ~sep:comma Ctype.pp)
      args
      Fmt.(list ~sep:cut pp_failure)
      causes
  | Nested_model_failed { concept; args; causes } ->
    Fmt.pf ppf "@[<v2>required model %s<%a> fails:@,%a@]" concept
      Fmt.(list ~sep:comma Ctype.pp)
      args
      Fmt.(list ~sep:cut pp_failure)
      causes
  | Complexity_too_weak { op; required; declared } ->
    Fmt.pf ppf "operation %s declared %a, concept requires %a" op
      Complexity.pp declared Complexity.pp required
  | No_model_declared { concept; args } ->
    Fmt.pf ppf "no model of %s declared for <%a> (nominal mode)" concept
      Fmt.(list ~sep:comma Ctype.pp)
      args

let pp_warning ppf = function
  | Axiom_asserted_not_proved { concept; axiom } ->
    Fmt.pf ppf "axiom %s.%s is asserted but not backed by a checked proof"
      concept axiom
  | Axiom_not_asserted { concept; axiom } ->
    Fmt.pf ppf "axiom %s.%s is neither asserted nor proved" concept axiom
  | No_complexity_declared { concept; op } ->
    Fmt.pf ppf "model declares no complexity bound for %s.%s" concept op

let pp_report ppf r =
  if r.rep_failures = [] then
    Fmt.pf ppf "@[<v2><%a> models %s%a@]"
      Fmt.(list ~sep:comma Ctype.pp)
      r.rep_args r.rep_concept
      Fmt.(
        list ~sep:nop (fun ppf w -> pf ppf "@,warning: %a" pp_warning w))
      r.rep_warnings
  else
    Fmt.pf ppf "@[<v2><%a> does NOT model %s:@,%a@]"
      Fmt.(list ~sep:comma Ctype.pp)
      r.rep_args r.rep_concept
      Fmt.(list ~sep:cut pp_failure)
      r.rep_failures

let rec check_concept ?(mode = Structural) ~visited reg concept_name args =
  let fail f = ([ f ], []) in
  match Registry.find_concept reg concept_name with
  | None -> fail (Unknown_concept concept_name)
  | Some con ->
    let params = con.Concept.params in
    if List.length params <> List.length args then
      fail
        (Arity_mismatch
           {
             concept = concept_name;
             expected = List.length params;
             got = List.length args;
           })
    else
      let key = (concept_name, List.map Ctype.to_string args) in
      if List.mem key visited then ([], []) (* assume on cycles *)
      else
        let visited = key :: visited in
        let env = List.combine params args in
        let model = Registry.find_model reg concept_name args in
        let nominal_failures =
          match mode, model with
          | Nominal, None ->
            [ No_model_declared { concept = concept_name; args } ]
          | (Nominal | Structural), _ -> []
        in
        let resolve_or ty context k =
          let ty = Ctype.subst env ty in
          match Registry.resolve reg ty with
          | Some g -> k g
          | None -> [ Unresolved_type { ty; context } ]
        in
        (* refined concepts *)
        let refine_results =
          List.map
            (fun (rname, rargs) ->
              let rargs = List.map (Ctype.subst env) rargs in
              let rargs_resolved =
                List.map
                  (fun a ->
                    match Registry.resolve reg a with Some g -> g | None -> a)
                  rargs
              in
              let fs, ws =
                check_concept ~mode ~visited reg rname rargs_resolved
              in
              if fs = [] then ([], ws)
              else
                ( [
                    Refinement_failed
                      { concept = rname; args = rargs_resolved; causes = fs };
                  ],
                  ws ))
            con.Concept.refines
        in
        let req_results =
          List.map
            (fun req ->
              match req with
              | Concept.Assoc_type { at_name; at_constraints } ->
                (* associated types belong to the first parameter *)
                let owner = List.hd args in
                let proj = Ctype.Assoc (owner, at_name) in
                (match Registry.resolve reg proj with
                | None ->
                  ([ Missing_assoc_type { ty = owner; assoc = at_name } ], [])
                | Some _ ->
                  let sub =
                    check_constraints ~mode ~visited reg env at_constraints
                  in
                  sub)
              | Concept.Operation s ->
                let check_op () =
                  let param_tys =
                    List.map (Ctype.subst env) s.Concept.op_params
                  in
                  let resolved =
                    List.map (Registry.resolve reg) param_tys
                  in
                  if List.exists Option.is_none resolved then
                    ( [
                        Unresolved_type
                          {
                            ty = List.hd param_tys;
                            context = "parameter of " ^ s.Concept.op_name;
                          };
                      ],
                      [] )
                  else
                    let param_tys = List.map Option.get resolved in
                    match
                      Registry.find_ops reg s.Concept.op_name param_tys
                    with
                    | [] ->
                      ( [
                          Missing_operation
                            {
                              expected =
                                {
                                  s with
                                  Concept.op_params = param_tys;
                                  op_return =
                                    Ctype.subst env s.Concept.op_return;
                                };
                            };
                        ],
                        [] )
                    | candidates ->
                      resolve_or s.Concept.op_return
                        ("return of " ^ s.Concept.op_name) (fun expected ->
                          let returns =
                            List.filter_map
                              (fun (c : Concept.signature) ->
                                Registry.resolve reg c.Concept.op_return)
                              candidates
                          in
                          if List.exists (Ctype.equal expected) returns then
                            []
                          else
                            match returns with
                            | found :: _ ->
                              [
                                Return_type_mismatch
                                  { op = s.Concept.op_name; expected; found };
                              ]
                            | [] ->
                              [
                                Unresolved_type
                                  {
                                    ty = s.Concept.op_return;
                                    context =
                                      "return of found op "
                                      ^ s.Concept.op_name;
                                  };
                              ])
                      |> fun fs -> (fs, [])
                in
                check_op ()
              | Concept.Constraint c ->
                check_constraints ~mode ~visited reg env [ c ]
              | Concept.Axiom a ->
                let warn =
                  if
                    Registry.axiom_certified reg ~concept:concept_name
                      ~axiom:a.ax_name ~args
                  then []
                  else
                    match model with
                    | Some m
                      when List.mem a.Concept.ax_name m.Registry.mo_axioms_asserted
                      ->
                      [
                        Axiom_asserted_not_proved
                          { concept = concept_name; axiom = a.Concept.ax_name };
                      ]
                    | _ ->
                      [
                        Axiom_not_asserted
                          { concept = concept_name; axiom = a.Concept.ax_name };
                      ]
                in
                ([], warn)
              | Concept.Complexity_guarantee cg -> (
                match model with
                | None ->
                  ( [],
                    [
                      No_complexity_declared
                        { concept = concept_name; op = cg.Concept.cg_op };
                    ] )
                | Some m -> (
                  match
                    List.assoc_opt cg.Concept.cg_op m.Registry.mo_complexity
                  with
                  | None ->
                    ( [],
                      [
                        No_complexity_declared
                          { concept = concept_name; op = cg.Concept.cg_op };
                      ] )
                  | Some declared ->
                    if Complexity.leq declared cg.Concept.cg_bound then
                      ([], [])
                    else
                      ( [
                          Complexity_too_weak
                            {
                              op = cg.Concept.cg_op;
                              required = cg.Concept.cg_bound;
                              declared;
                            };
                        ],
                        [] ))))
            con.Concept.requirements
        in
        let all = refine_results @ req_results in
        ( nominal_failures @ List.concat_map fst all,
          List.concat_map snd all )

and check_constraints ~mode ~visited reg env cs =
  let results =
    List.map
      (fun c ->
        match c with
        | Concept.Models (cname, cargs) ->
          let cargs = List.map (Ctype.subst env) cargs in
          let resolved =
            List.map
              (fun a ->
                match Registry.resolve reg a with Some g -> g | None -> a)
              cargs
          in
          let fs, ws = check_concept ~mode ~visited reg cname resolved in
          if fs = [] then ([], ws)
          else
            ( [
                Nested_model_failed
                  { concept = cname; args = resolved; causes = fs };
              ],
              ws )
        | Concept.Same_type (a, b) ->
          let ra = Registry.resolve reg (Ctype.subst env a)
          and rb = Registry.resolve reg (Ctype.subst env b) in
          (match ra, rb with
          | Some x, Some y when Ctype.equal x y -> ([], [])
          | Some x, Some y ->
            ([ Same_type_violated { left = x; right = y } ], [])
          | None, _ ->
            ( [ Unresolved_type { ty = a; context = "same-type constraint" } ],
              [] )
          | _, None ->
            ( [ Unresolved_type { ty = b; context = "same-type constraint" } ],
              [] )))
      cs
  in
  (List.concat_map fst results, List.concat_map snd results)

(* ------------------------------------------------------------------ *)
(* Verdict memo                                                        *)
(* ------------------------------------------------------------------ *)

(* A verdict is a pure function of (concept, args, mode) and the
   registry's declarations, its axiom certifications included. A
   registry keeps its verdicts in its memo slot, stamped with the
   generation they were derived at, so any declaration (a certification
   is one) or [touch] empties the table on the next check. A fork's own
   lists hold everything it answers from, and declaring into its parent
   replaces the parent's lists, never the fork's, so the same stamp
   serves a fork. A table is emptied when it reaches [memo_capacity],
   so wire-supplied names cannot grow it.

   An entry also carries the verdict's rendered report once someone has
   asked for it ([check_rendered]), so a memo hit renders nothing, and
   one client answer built from the two ([check_answer]). *)
(* The key is a record with the tuple's layout, so it hashes exactly as
   the tuple [(concept, args, mode)] did. Its fields are mutable so a
   lookup can probe through one reused key instead of building one. *)
type key = {
  mutable k_concept : string;
  mutable k_args : Ctype.t list;
  mutable k_mode : mode;
}

module Memo_tbl = Hashtbl.Make (struct
  type t = key

  let equal k1 k2 =
    String.equal k1.k_concept k2.k_concept
    && k1.k_mode = k2.k_mode
    && List.equal Ctype.equal k1.k_args k2.k_args

  let hash = Hashtbl.hash
end)

type answer = ..

type entry = {
  e_report : report;
  mutable e_text : string option;
  mutable e_answer : answer option;
}

type memo = {
  mutable m_generation : int;
  m_reports : entry Memo_tbl.t;
  m_probe : key; (* the reused lookup key; emptied after each probe *)
  mutable m_hit : bool; (* whether the last [verdict] was a memo hit *)
}

type Registry.memo += Verdicts of memo

let memo_capacity = 1024

let new_memo () =
  Verdicts
    { m_generation = -1; m_reports = Memo_tbl.create 8;
      m_probe = { k_concept = ""; k_args = []; k_mode = Structural };
      m_hit = false }

let memo_of reg =
  match Registry.memo reg new_memo with
  | Verdicts m ->
    let g = Registry.generation reg in
    if m.m_generation <> g then begin
      Memo_tbl.reset m.m_reports;
      m.m_generation <- g
    end;
    m
  | _ -> assert false (* this module is the slot's only client *)

let memo_entries reg = Memo_tbl.length (memo_of reg).m_reports

let compute mode reg concept args =
  let failures, warnings = check_concept ~mode ~visited:[] reg concept args in
  {
    e_report =
      {
        rep_concept = concept;
        rep_args = args;
        rep_failures = failures;
        rep_warnings = warnings;
      };
    e_text = None;
    e_answer = None;
  }

(* The verdict, from memo [m] when there is one; [m.m_hit] says which. A
   hit allocates nothing: the probe key is reused, [Memo_tbl.find]
   returns no option, and the hit flag is a field, not a pair. The probe
   is emptied before [compute], which may ask for verdicts itself, and
   is never stored: a miss files a key of its own. *)
let verdict m mode reg concept args =
  let probe = m.m_probe in
  probe.k_concept <- concept;
  probe.k_args <- args;
  probe.k_mode <- mode;
  match Memo_tbl.find m.m_reports probe with
  | e ->
    probe.k_concept <- "";
    probe.k_args <- [];
    m.m_hit <- true;
    e
  | exception Not_found ->
    probe.k_concept <- "";
    probe.k_args <- [];
    let e = compute mode reg concept args in
    if Memo_tbl.length m.m_reports >= memo_capacity then
      Memo_tbl.reset m.m_reports;
    Memo_tbl.add m.m_reports
      { k_concept = concept; k_args = args; k_mode = mode }
      e;
    m.m_hit <- false;
    e

(* The verdict's entry, under the [concepts.check] span when telemetry
   is on. *)
let check_entry mode reg concept args =
  let module Tel = Gp_telemetry.Tel in
  let m = memo_of reg in
  if not (Tel.is_enabled ()) then verdict m mode reg concept args
  else
    Tel.with_span ~name:"concepts.check"
      ~attrs:(fun () ->
        [
          ( "mode",
            match mode with Structural -> "structural" | Nominal -> "nominal"
          );
          ("concept", concept);
        ])
      (fun () ->
        let e = verdict m mode reg concept args in
        let hit = m.m_hit in
        let report = e.e_report in
        let outcome = if report.rep_failures = [] then "ok" else "failed" in
        Tel.attr "outcome" outcome;
        Tel.attr "failures" (string_of_int (List.length report.rep_failures));
        Tel.attr "warnings" (string_of_int (List.length report.rep_warnings));
        Tel.attr "memo_hit" (string_of_bool hit);
        e)

(* Public entry point: check whether ground types [args] model [concept]. *)
let check ?(mode = Structural) reg concept args =
  (check_entry mode reg concept args).e_report

let rendered e =
  match e.e_text with
  | Some text -> text
  | None ->
    let text = Fmt.str "%a" pp_report e.e_report in
    e.e_text <- Some text;
    text

let check_rendered ?(mode = Structural) reg concept args =
  let e = check_entry mode reg concept args in
  (e.e_report, rendered e)

let check_answer ?(mode = Structural) reg concept args make =
  let e = check_entry mode reg concept args in
  match e.e_answer with
  | Some a -> a
  | None ->
    let a = make e.e_report (rendered e) in
    e.e_answer <- Some a;
    a

let models ?mode reg concept args = ok (check ?mode reg concept args)
