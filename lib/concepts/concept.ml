(* First-class concepts.

   Following Section 2 of the paper, a concept consists of four kinds of
   requirements placed on one or more type parameters:
   - associated types (with their own constraints),
   - function signatures / valid expressions,
   - semantic constraints (axioms), and
   - complexity guarantees.

   A concept may refine other concepts, inheriting their requirements.
   Multi-parameter concepts (Section 2.4, Vector Space) are supported
   directly: [params] may list several type variables. *)

type signature = {
  op_name : string;
  op_params : Ctype.t list;
  op_return : Ctype.t;
  op_doc : string;
}

type type_constraint =
  | Models of string * Ctype.t list
      (* [Models (c, args)]: the instantiated types must model concept [c] *)
  | Same_type of Ctype.t * Ctype.t

type axiom = {
  ax_name : string;
  ax_statement : string;
      (* human-readable formal statement, e.g. "forall a. op(a,e) = a" *)
  ax_vars : string list; (* universally quantified object variables *)
}

type complexity_guarantee = {
  cg_op : string; (* operation the bound applies to *)
  cg_bound : Complexity.t;
  cg_amortized : bool;
}

type requirement =
  | Assoc_type of {
      at_name : string;
      at_constraints : type_constraint list;
    }
  | Operation of signature
  | Constraint of type_constraint
  | Axiom of axiom
  | Complexity_guarantee of complexity_guarantee

type t = {
  name : string;
  params : string list; (* type parameters, usually one; >=2 for multi-type *)
  refines : (string * Ctype.t list) list;
      (* refined concepts with argument instantiations in terms of [params] *)
  requirements : requirement list;
  doc : string;
}

let make ?(doc = "") ?(refines = []) ~params name requirements =
  if params = [] then invalid_arg "Concept.make: needs at least one parameter";
  { name; params; refines; requirements; doc }

let signature ?(doc = "") op_name op_params op_return =
  Operation { op_name; op_params; op_return; op_doc = doc }

let assoc_type ?(constraints = []) at_name =
  Assoc_type { at_name; at_constraints = constraints }

let axiom ?(vars = []) ax_name ax_statement =
  Axiom { ax_name; ax_statement; ax_vars = vars }

let complexity ?(amortized = false) cg_op cg_bound =
  Complexity_guarantee { cg_op; cg_bound; cg_amortized = amortized }

let associated_types t =
  List.filter_map
    (function Assoc_type { at_name; _ } -> Some at_name | _ -> None)
    t.requirements

let operations t =
  List.filter_map
    (function Operation s -> Some s | _ -> None)
    t.requirements

let axioms t =
  List.filter_map (function Axiom a -> Some a | _ -> None) t.requirements

let complexity_guarantees t =
  List.filter_map
    (function Complexity_guarantee c -> Some c | _ -> None)
    t.requirements

(* Is [t] syntactic only, or semantic (has axioms / complexity bounds)?
   Section 2: "A syntactic concept consists of just associated types and
   function signatures, whereas a semantic concept also includes semantic
   constraints and complexity guarantees." *)
let is_semantic t =
  List.exists
    (function Axiom _ | Complexity_guarantee _ -> true | _ -> false)
    t.requirements

let pp_signature ppf s =
  Fmt.pf ppf "%s : %a -> %a" s.op_name
    Fmt.(list ~sep:(any " * ") Ctype.pp)
    s.op_params Ctype.pp s.op_return

let pp_type_constraint ppf = function
  | Models (c, args) ->
    Fmt.pf ppf "%a models %s" Fmt.(list ~sep:comma Ctype.pp) args c
  | Same_type (a, b) -> Fmt.pf ppf "%a == %a" Ctype.pp a Ctype.pp b

let pp_requirement ppf = function
  | Assoc_type { at_name; at_constraints } ->
    Fmt.pf ppf "type %s%a" at_name
      Fmt.(
        list ~sep:nop (fun ppf c -> pf ppf " where %a" pp_type_constraint c))
      at_constraints
  | Operation s -> pp_signature ppf s
  | Constraint c -> pp_type_constraint ppf c
  | Axiom a -> Fmt.pf ppf "axiom %s: %s" a.ax_name a.ax_statement
  | Complexity_guarantee c ->
    Fmt.pf ppf "%s%s is %a" c.cg_op
      (if c.cg_amortized then " (amortized)" else "")
      Complexity.pp c.cg_bound

let pp ppf t =
  Fmt.pf ppf "@[<v2>concept %s<%a>%a {@,%a@]@,}" t.name
    Fmt.(list ~sep:comma string)
    t.params
    Fmt.(
      list ~sep:nop (fun ppf (c, args) ->
          pf ppf " refines %s<%a>" c (list ~sep:comma Ctype.pp) args))
    t.refines
    Fmt.(list ~sep:cut pp_requirement)
    t.requirements
