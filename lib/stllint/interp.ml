(* The abstract interpreter: flow-sensitive symbolic execution of the AST
   against the library specifications, producing high-level diagnostics.

   "STLlint permits static checking of iterators by analyzing at the
   concept level, and is thereby able to uncover this error to produce a
   meaningful, high-level error message." *)

type severity = Error | Warning | Suggestion

type diagnostic = {
  d_severity : severity;
  d_message : string;
  d_where : string; (* statement label *)
}

let pp_severity ppf = function
  | Error -> Fmt.string ppf "Error"
  | Warning -> Fmt.string ppf "Warning"
  | Suggestion -> Fmt.string ppf "Suggestion"

let pp_diagnostic ppf d =
  Fmt.pf ppf "%a: %s" pp_severity d.d_severity d.d_message;
  if d.d_where <> "" then Fmt.pf ppf "@,    at: %s" d.d_where

(* The Section 3.2 suggestion, verbatim from the paper. *)
let sorted_linear_search_message alternative =
  Printf.sprintf
    "potential optimization: the incoming sequence [first, last) is sorted, \
     but will be searched linearly with this algorithm. Consider replacing \
     this algorithm with one specialized for sorted sequences (e.g., %s)"
    alternative

type ctx = {
  mutable diags : diagnostic list; (* reverse order; deduplicated *)
  mutable steps : int; (* symbolic statements executed, loop bodies included *)
}

let emit ctx severity message where =
  let d = { d_severity = severity; d_message = message; d_where = where } in
  if
    not
      (List.exists
         (fun d' -> d'.d_message = d.d_message && d'.d_where = d.d_where)
         ctx.diags)
  then ctx.diags <- d :: ctx.diags

(* ------------------------------------------------------------------ *)
(* Iterator-use checks                                                 *)
(* ------------------------------------------------------------------ *)

(* After reporting a defective iterator use, the iterator's state is
   *poisoned* to I_top so one root cause produces one diagnostic instead of
   a cascade (standard checker hygiene). The checks therefore take and
   return the state. *)

let check_deref ctx st label it =
  match State.iter st it with
  | Some (State.I_singular _) ->
    emit ctx Error "attempt to dereference a singular iterator" label;
    State.set_iter st it State.I_top
  | Some (State.I_invalid why) ->
    emit ctx Error
      (Printf.sprintf
         "attempt to dereference an invalidated iterator (%s)" why)
      label;
    State.set_iter st it State.I_top
  | Some (State.I_end _) ->
    emit ctx Error "attempt to dereference a past-the-end iterator" label;
    State.set_iter st it State.I_top
  | Some (State.I_valid { maybe_end = true; _ }) ->
    emit ctx Warning
      "possible dereference of a past-the-end iterator: the result of an \
       algorithm was not compared against end()"
      label;
    st
  | Some (State.I_valid { maybe_end = false; _ }) | Some State.I_top -> st
  | None ->
    emit ctx Error (Printf.sprintf "use of undeclared iterator %s" it) label;
    State.set_iter st it State.I_top

let check_step ctx st label it =
  match State.iter st it with
  | Some (State.I_singular _) ->
    emit ctx Error "attempt to increment a singular iterator" label;
    State.set_iter st it State.I_top
  | Some (State.I_invalid why) ->
    emit ctx Error
      (Printf.sprintf "attempt to increment an invalidated iterator (%s)" why)
      label;
    State.set_iter st it State.I_top
  | Some (State.I_end _) ->
    emit ctx Warning "attempt to increment a past-the-end iterator" label;
    st
  | Some (State.I_valid _) | Some State.I_top -> st
  | None ->
    emit ctx Error (Printf.sprintf "use of undeclared iterator %s" it) label;
    State.set_iter st it State.I_top

let check_expr ctx st label e =
  List.fold_left (fun st it -> check_deref ctx st label it) st
    (Ast.derefs_in e)

(* ------------------------------------------------------------------ *)
(* Range classification                                                *)
(* ------------------------------------------------------------------ *)

type range_info = {
  ri_container : string option;
  ri_kind : Ast.container_kind option;
  ri_sorted : State.sortedness;
}

let unknown_range =
  { ri_container = None; ri_kind = None; ri_sorted = State.Unknown_sorted }

let range_info st = function
  | Ast.R_container c -> (
    match State.container st c with
    | Some cs ->
      { ri_container = Some c; ri_kind = Some cs.State.c_kind;
        ri_sorted = cs.State.c_sorted }
    | None -> unknown_range)
  | Ast.R_iters (i, _) -> (
    match State.iter st i with
    | Some (State.I_valid { c; _ }) | Some (State.I_end c) -> (
      match State.container st c with
      | Some cs ->
        { ri_container = Some c; ri_kind = Some cs.State.c_kind;
          ri_sorted = cs.State.c_sorted }
      | None -> unknown_range)
    | _ -> unknown_range)

(* ------------------------------------------------------------------ *)
(* Conditional refinement                                              *)
(* ------------------------------------------------------------------ *)

(* Refine iterator states under the truth/falsity of a condition: after
   `it != c.end()` holds, `it` is dereferenceable; when it fails, `it` is
   past-the-end. *)
let refine st cond truth =
  let refine_ne a b st =
    match State.iter st a, State.iter st b with
    | Some (State.I_valid v), Some (State.I_end c)
      when String.equal v.c c ->
      if truth then State.set_iter st a (State.I_valid { v with maybe_end = false })
      else State.set_iter st a (State.I_end c)
    | Some (State.I_end c), Some (State.I_valid v)
      when String.equal v.c c ->
      if truth then State.set_iter st b (State.I_valid { v with maybe_end = false })
      else State.set_iter st b (State.I_end c)
    | _ -> st
  in
  match cond with
  | Ast.Iter_ne (a, b) -> refine_ne a b st
  | Ast.Iter_eq (a, b) ->
    (* == is != with truth flipped *)
    let st' = refine_ne a b st in
    ignore st';
    (match State.iter st a, State.iter st b with
    | Some (State.I_valid v), Some (State.I_end c)
      when String.equal v.c c ->
      if truth then State.set_iter st a (State.I_end c)
      else State.set_iter st a (State.I_valid { v with maybe_end = false })
    | _ -> st)
  | Ast.Pred _ -> st

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

let eval_iter_init ctx st label = function
  | Ast.Begin_of c -> (
    match State.container st c with
    | Some cs ->
      if cs.State.c_kind = Ast.Istream then State.I_valid { c; maybe_end = true }
      else State.I_valid { c; maybe_end = true }
      (* begin may equal end on an empty container *)
    | None ->
      emit ctx Error (Printf.sprintf "use of undeclared container %s" c) label;
      State.I_top)
  | Ast.End_of c -> (
    match State.container st c with
    | Some _ -> State.I_end c
    | None ->
      emit ctx Error (Printf.sprintf "use of undeclared container %s" c) label;
      State.I_top)
  | Ast.Copy_of other -> (
    match State.iter st other with
    | Some s -> s
    | None ->
      emit ctx Error
        (Printf.sprintf "copy of undeclared iterator %s" other)
        label;
      State.I_top)
  | Ast.Singular_init -> State.I_singular "default-initialised"

let set_container_sorted st c sorted =
  match State.container st c with
  | Some cs -> State.set_container st c { cs with State.c_sorted = sorted }
  | None -> st

let rec exec_stmt ctx st ({ Ast.label; node } : Ast.stmt) =
  ctx.steps <- ctx.steps + 1;
  match node with
  | Ast.Decl_container { name; kind; sorted } ->
    State.set_container st name
      {
        State.c_kind = kind;
        c_sorted = (if sorted then State.Sorted else State.Unknown_sorted);
      }
  | Ast.Decl_iter { name; init } | Ast.Assign_iter { name; init } ->
    State.set_iter st name (eval_iter_init ctx st label init)
  | Ast.Incr it -> (
    let st = check_step ctx st label it in
    (* stepping may reach end *)
    match State.iter st it with
    | Some (State.I_valid v) ->
      State.set_iter st it (State.I_valid { v with maybe_end = true })
    | _ -> st)
  | Ast.Decr it -> check_step ctx st label it
  | Ast.Deref_read it -> check_deref ctx st label it
  | Ast.Deref_write (it, e) ->
    let st = check_deref ctx st label it in
    let st = check_expr ctx st label e in
    (* writing through an iterator may break sortedness *)
    (match State.iter st it with
    | Some (State.I_valid { c; _ }) -> set_container_sorted st c State.Unknown_sorted
    | _ -> st)
  | Ast.Push_back (c, e) | Ast.Push_front (c, e) -> (
    let st = check_expr ctx st label e in
    match State.container st c with
    | Some cs ->
      let st = State.invalidate st ~container:c
          ~effect:(Spec.push_effect cs.State.c_kind) ~erased_at:None in
      set_container_sorted st c State.Unknown_sorted
    | None ->
      emit ctx Error (Printf.sprintf "use of undeclared container %s" c) label;
      st)
  | Ast.Pop_back c -> (
    match State.container st c with
    | Some cs ->
      State.invalidate st ~container:c
        ~effect:(Spec.push_effect cs.State.c_kind) ~erased_at:None
    | None -> st)
  | Ast.Erase { container = c; at; result } -> (
    (* erasing through an invalid iterator is itself an error, reported by
       the deref check *)
    let st = check_deref ctx st label at in
    match State.container st c with
    | Some cs ->
      let st =
        State.invalidate st ~container:c
          ~effect:(Spec.erase_effect cs.State.c_kind) ~erased_at:(Some at)
      in
      (match result with
      | Some r -> State.set_iter st r (State.I_valid { c; maybe_end = true })
      | None -> st)
    | None ->
      emit ctx Error (Printf.sprintf "use of undeclared container %s" c) label;
      st)
  | Ast.Insert { container = c; at; value; result } -> (
    let st = check_expr ctx st label value in
    (match State.iter st at with
    | Some (State.I_singular _) ->
      emit ctx Error "insert position is a singular iterator" label
    | Some (State.I_invalid why) ->
      emit ctx Error
        (Printf.sprintf "insert position is an invalidated iterator (%s)" why)
        label
    | _ -> ());
    match State.container st c with
    | Some cs ->
      let st =
        State.invalidate st ~container:c
          ~effect:(Spec.insert_effect cs.State.c_kind) ~erased_at:None
      in
      let st = set_container_sorted st c State.Unknown_sorted in
      (match result with
      | Some r -> State.set_iter st r (State.I_valid { c; maybe_end = false })
      | None -> st)
    | None ->
      emit ctx Error (Printf.sprintf "use of undeclared container %s" c) label;
      st)
  | Ast.Expr_stmt e -> check_expr ctx st label e
  | Ast.Algo { algo; args; result } -> exec_algo ctx st label algo args result
  | Ast.If (cond, then_, else_) ->
    let st =
      List.fold_left
        (fun st it -> check_deref ctx st label it)
        st (Ast.cond_derefs cond)
    in
    let st_then = exec_block ctx (refine st cond true) then_ in
    let st_else = exec_block ctx (refine st cond false) else_ in
    State.join st_then st_else
  | Ast.While (cond, body) ->
    let rec fix st n =
      let st =
        List.fold_left
          (fun st it -> check_deref ctx st label it)
          st (Ast.cond_derefs cond)
      in
      let inside = refine st cond true in
      let after = exec_block ctx inside body in
      let joined = State.join st after in
      if State.equal joined st || n > 20 then refine st cond false
      else fix joined (n + 1)
    in
    fix st 0

and exec_block ctx st stmts = List.fold_left (exec_stmt ctx) st stmts

and exec_algo ctx st label algo args result =
  match Spec.find_algo algo with
  | None ->
    emit ctx Warning
      (Printf.sprintf "no specification for algorithm %s: not checked" algo)
      label;
    st
  | Some spec ->
    (* collect the primary range and check iterator args *)
    let ranges =
      List.filter_map
        (function Ast.A_range r -> Some r | _ -> None)
        args
    in
    let st =
      List.fold_left
        (fun st arg ->
          match arg with
          | Ast.A_iter it -> check_step ctx st label it
          | Ast.A_value e -> check_expr ctx st label e
          | Ast.A_range (Ast.R_iters (i, j)) ->
            (* the iterators bounding a range must not be invalid *)
            List.fold_left
              (fun st it ->
                match State.iter st it with
                | Some (State.I_singular _) ->
                  emit ctx Error
                    (Printf.sprintf
                       "range argument of %s is a singular iterator" algo)
                    label;
                  State.set_iter st it State.I_top
                | Some (State.I_invalid why) ->
                  emit ctx Error
                    (Printf.sprintf
                       "range argument of %s was invalidated (%s)" algo why)
                    label;
                  State.set_iter st it State.I_top
                | _ -> st)
              st [ i; j ]
          | Ast.A_range (Ast.R_container _) | Ast.A_pred _ -> st)
        st args
    in
    let st = ref st in
    List.iter
      (fun r ->
        let info = range_info !st r in
        (* 1. iterator-concept (category) requirement *)
        (match info.ri_kind with
        | Some kind ->
          let cat = Ast.kind_category kind in
          (* 1a. the multipass semantic requirement: detected with the
             single-pass Input Iterator semantic archetype. Takes priority
             over the plain category mismatch because it is the semantic
             root cause. *)
          if spec.Spec.sp_multipass && cat = Gp_sequence.Iter.Input then
            emit ctx Error
              (Printf.sprintf
                 "%s requires the multipass property of ForwardIterator; an \
                  input stream iterator permits only one traversal of the \
                  sequence"
                 algo)
              label
          else if
            not (Gp_sequence.Iter.satisfies ~required:spec.Spec.sp_category cat)
          then
            emit ctx Error
              (Printf.sprintf
                 "%s requires %s, but %s iterators model only %s" algo
                 (Gp_sequence.Iter.category_name spec.Spec.sp_category)
                 (Ast.kind_name kind)
                 (Gp_sequence.Iter.category_name cat))
              label;
          (* 3. single-pass streams cannot be traversed twice *)
          (match info.ri_container, kind with
          | Some c, Ast.Istream ->
            if List.mem c !st.State.consumed_streams then
              emit ctx Error
                (Printf.sprintf
                   "input stream %s has already been traversed: single-pass \
                    iterators cannot traverse the sequence twice"
                   c)
                label
            else
              st :=
                { !st with
                  State.consumed_streams = c :: !st.State.consumed_streams }
          | _ -> ())
        | None -> ());
        (* 4. sortedness precondition / suggestion *)
        (match info.ri_sorted, spec.Spec.sp_requires_sorted with
        | State.Sorted, true -> ()
        | (State.Unsorted | State.Unknown_sorted), true ->
          emit ctx Warning
            (Printf.sprintf
               "cannot verify precondition of %s: the range may not be sorted"
               algo)
            label
        | State.Sorted, false ->
          (match spec.Spec.sp_sorted_alternative with
          | Some alt ->
            emit ctx Suggestion (sorted_linear_search_message alt) label
          | None -> ())
        | (State.Unsorted | State.Unknown_sorted), false -> ());
        (* 5. postconditions on the container *)
        (match info.ri_container with
        | Some c ->
          if spec.Spec.sp_establishes_sorted then
            st := set_container_sorted !st c State.Sorted
          else if spec.Spec.sp_mutates then
            st := set_container_sorted !st c State.Unknown_sorted
        | None -> ()))
      ranges;
    (* 6. result iterator shape *)
    (match result, spec.Spec.sp_result with
    | Some r, Spec.R_iter_maybe_end ->
      let c =
        List.find_map
          (fun rg ->
            match range_info !st rg with
            | { ri_container = Some c; _ } -> Some c
            | _ -> None)
          ranges
      in
      (match c with
      | Some c -> st := State.set_iter !st r (State.I_valid { c; maybe_end = true })
      | None -> st := State.set_iter !st r State.I_top)
    | Some r, Spec.R_iter_valid ->
      let c =
        List.find_map
          (fun rg ->
            match range_info !st rg with
            | { ri_container = Some c; _ } -> Some c
            | _ -> None)
          ranges
      in
      (match c with
      | Some c -> st := State.set_iter !st r (State.I_valid { c; maybe_end = false })
      | None -> st := State.set_iter !st r State.I_top)
    | Some r, Spec.R_none -> st := State.set_iter !st r State.I_top
    | None, _ -> ());
    !st

(* Entry point: check a whole program. *)
let check (program : Ast.stmt list) =
  let module Tel = Gp_telemetry.Tel in
  Tel.with_span ~name:"stllint.check"
    ~attrs:(fun () -> [ ("stmts", string_of_int (List.length program)) ])
    (fun () ->
      let ctx = { diags = []; steps = 0 } in
      let _final = exec_block ctx State.empty program in
      let diags = List.rev ctx.diags in
      if Tel.is_enabled () then begin
        let count sev =
          List.length (List.filter (fun d -> d.d_severity = sev) diags)
        in
        Tel.attr "symbolic_steps" (string_of_int ctx.steps);
        Tel.attr "diagnostics" (string_of_int (List.length diags));
        Tel.attr "errors" (string_of_int (count Error));
        Tel.attr "warnings" (string_of_int (count Warning));
        Tel.attr "suggestions" (string_of_int (count Suggestion))
      end;
      diags)

let errors ds = List.filter (fun d -> d.d_severity = Error) ds
let warnings ds = List.filter (fun d -> d.d_severity = Warning) ds
let suggestions ds = List.filter (fun d -> d.d_severity = Suggestion) ds

let pp_report ppf ds =
  if ds = [] then Fmt.string ppf "no diagnostics: program is clean"
  else Fmt.pf ppf "@[<v>%a@]" Fmt.(list ~sep:cut pp_diagnostic) ds
