(* A cohesive surface syntax for concepts — the paper's stated future
   work ("unifying the notions of syntactic, semantic, and performance
   requirements on concepts into a single, cohesive syntax").

   The grammar (informally):

     file        ::= item*
     item        ::= concept | typedecl | opdecl | modeldecl
     concept     ::= "concept" name "<" params ">" [refines] "{" req* "}"
     refines     ::= "refines" usage ("," usage)*
     usage       ::= name "<" ty ("," ty)* ">"
     req         ::= "type" name [where] ";"                 associated type
                   | name ":" [ty ("," ty)*] "->" ty ";"     operation
                   | "axiom" name ["(" ids ")"] ":" string ";"
                   | "complexity" name bigO ["amortized"] ";"
                   | "requires" usage ";"                    nested Models
                   | "same" ty "==" ty ";"
     where       ::= "where" wclause ("," wclause)*
     wclause     ::= "models" usage | "==" ty
     bigO        ::= "O(" oterm ("+" oterm)* ")"
     oterm       ::= ofactor+         (product by juxtaposition)
     ofactor     ::= "1" | id ["^" int] | "log" id
     typedecl    ::= "type" tyname ["{" (name "=" ty ";")* "}"] ";"?
     opdecl      ::= "op" name ":" [ty ("," ty)*] "->" ty ";"
     modeldecl   ::= "model" usage ["asserting" ids] ";"
     ty          ::= atom ("." name)*          projections
     atom        ::= id | string | id "<" ty ("," ty)* ">"

   Type names containing special characters (["int[+]"],
   ["vector<int>::iterator"]) are written as double-quoted strings.
   Inside a concept body, identifiers matching a declared parameter are
   parsed as parameters; everything else is a named type.

   The tokens come from [Lex] under [syntax] below: string literals and
   [// ...] comments, no floats. A [Parse_error] is [Lex]'s error: at
   the offending character, or at the first byte of the offending
   token. *)

open Lex

exception Parse_error = Lex.Error

let syntax =
  Lex.syntax ~punct:"<>{}(),;:.^+=" ~pairs:[ "->"; "==" ] ~strings:true
    ~floats:false ~comments:true

(* ------------------------------------------------------------------ *)
(* Type expressions                                                    *)
(* ------------------------------------------------------------------ *)

(* [params]: identifiers to parse as concept parameters. *)
let rec parse_ty s ~params =
  let atom =
    match s.tok with
    | Str name ->
      shift s;
      Ctype.Named name
    | Id name ->
      shift s;
      if accept s "<" then begin
        let args = parse_ty_list s ~params in
        expect s ">";
        Ctype.App (name, args)
      end
      else if List.mem name params then Ctype.Var name
      else Ctype.Named name
    | _ -> error s "expected a type"
  in
  let rec projections base =
    if accept s "." then begin
      let field = ident s in
      projections (Ctype.Assoc (base, field))
    end
    else base
  in
  projections atom

and parse_ty_list s ~params =
  let first = parse_ty s ~params in
  if accept s "," then first :: parse_ty_list s ~params
  else [ first ]

(* [item] ("," [item])* *)
let rec commas item s =
  let first = item s in
  if accept s "," then first :: commas item s else [ first ]

(* ":" [ty ("," ty)*] "->" ty ";" *)
let parse_signature s ~params =
  expect s ":";
  let tys =
    match s.tok with Punct "->" -> [] | _ -> parse_ty_list s ~params
  in
  expect s "->";
  let ret = parse_ty s ~params in
  expect s ";";
  (tys, ret)

let parse_usage ~params s =
  let name =
    match s.tok with
    | Id x ->
      shift s;
      x
    | _ -> error s "expected a concept name"
  in
  expect s "<";
  let args = parse_ty_list s ~params in
  expect s ">";
  (name, args)

(* ------------------------------------------------------------------ *)
(* Complexity expressions                                              *)
(* ------------------------------------------------------------------ *)

let parse_bigO s =
  (match s.tok with
  | Id "O" -> shift s
  | _ -> error s "expected O(...)");
  expect s "(";
  let parse_factor () =
    match s.tok with
    | Int 1 ->
      shift s;
      Complexity.constant
    | Id "log" ->
      shift s;
      let v = ident s in
      Complexity.log_ v
    | Id v ->
      shift s;
      if accept s "^" then begin
        match s.tok with
        | Int k ->
          shift s;
          Complexity.power v k
        | _ -> error s "expected an exponent"
      end
      else Complexity.linear v
    | _ -> error s "expected a complexity factor"
  in
  let rec parse_term acc =
    match s.tok with
    | Int 1 | Id _ -> parse_term (Complexity.mul acc (parse_factor ()))
    | _ -> acc
  in
  let rec sums acc =
    if accept s "+" then
      sums (Complexity.add acc (parse_term (parse_factor ())))
    else acc
  in
  let result = sums (parse_term (parse_factor ())) in
  expect s ")";
  result

(* ------------------------------------------------------------------ *)
(* Concepts                                                            *)
(* ------------------------------------------------------------------ *)

(* models Foo<...> or == ty, applied to associated type [self] *)
let parse_where_clause ~params ~self s =
  if accept_id s "models" then
    let name, args = parse_usage ~params s in
    Concept.Models (name, args)
  else if accept s "==" then Concept.Same_type (self, parse_ty s ~params)
  else error s "expected 'models' or '=='"

let parse_requirement s ~params ~owner =
  if accept_id s "type" then begin
    let name = ident s in
    let self = Ctype.Assoc (Ctype.Var owner, name) in
    let constraints =
      if accept_id s "where" then commas (parse_where_clause ~params ~self) s
      else []
    in
    expect s ";";
    Concept.assoc_type ~constraints name
  end
  else if accept_id s "axiom" then begin
    let name = ident s in
    let vars =
      if accept s "(" then begin
        let vs = commas ident s in
        expect s ")";
        vs
      end
      else []
    in
    expect s ":";
    let statement =
      match s.tok with
      | Str str ->
        shift s;
        str
      | _ -> error s "expected a quoted axiom statement"
    in
    expect s ";";
    Concept.axiom ~vars name statement
  end
  else if accept_id s "complexity" then begin
    let op = ident s in
    let bound = parse_bigO s in
    let amortized = accept_id s "amortized" in
    expect s ";";
    Concept.complexity ~amortized op bound
  end
  else if accept_id s "requires" then begin
    let name, args = parse_usage ~params s in
    expect s ";";
    Concept.Constraint (Concept.Models (name, args))
  end
  else if accept_id s "same" then begin
    let a = parse_ty s ~params in
    expect s "==";
    let b = parse_ty s ~params in
    expect s ";";
    Concept.Constraint (Concept.Same_type (a, b))
  end
  else begin
    (* operation: name : ty, ty -> ty ; *)
    let name = ident s in
    let params_tys, ret = parse_signature s ~params in
    Concept.signature name params_tys ret
  end

let parse_concept s =
  let name = ident s in
  expect s "<";
  let params = commas ident s in
  expect s ">";
  let refines =
    if accept_id s "refines" then commas (parse_usage ~params) s else []
  in
  expect s "{";
  let owner = List.hd params in
  let rec reqs acc =
    match s.tok with
    | Punct "}" ->
      shift s;
      List.rev acc
    | _ -> reqs (parse_requirement s ~params ~owner :: acc)
  in
  let requirements = reqs [] in
  Concept.make ~params ~refines name requirements

(* ------------------------------------------------------------------ *)
(* Top-level items                                                     *)
(* ------------------------------------------------------------------ *)

type item =
  | Iconcept of Concept.t
  | Itype of { name : string; assoc : (string * Ctype.t) list }
  | Iop of { name : string; params : Ctype.t list; ret : Ctype.t }
  | Imodel of { concept : string; args : Ctype.t list; axioms : string list }

let parse_item s =
  if accept_id s "concept" then Some (Iconcept (parse_concept s))
  else if accept_id s "type" then begin
    let name =
      match s.tok with
      | Id x ->
        shift s;
        x
      | Str x ->
        shift s;
        x
      | _ -> error s "expected a type name"
    in
    let assoc =
      if accept s "{" then begin
        let rec fields acc =
          match s.tok with
          | Punct "}" ->
            shift s;
            List.rev acc
          | _ ->
            let f = ident s in
            expect s "=";
            let ty = parse_ty s ~params:[] in
            expect s ";";
            fields ((f, ty) :: acc)
        in
        fields []
      end
      else []
    in
    ignore (accept s ";");
    Some (Itype { name; assoc })
  end
  else if accept_id s "op" then begin
    let name = ident s in
    let params, ret = parse_signature s ~params:[] in
    Some (Iop { name; params; ret })
  end
  else if accept_id s "model" then begin
    let concept, args = parse_usage ~params:[] s in
    let axioms = if accept_id s "asserting" then commas ident s else [] in
    expect s ";";
    Some (Imodel { concept; args; axioms })
  end
  else
    match s.tok with
    | Eof -> None
    | _ -> error s "expected 'concept', 'type', 'op' or 'model'"

let parse_string src =
  let s = make syntax src in
  let rec go acc =
    match parse_item s with
    | Some item -> go (item :: acc)
    | None -> List.rev acc
  in
  go []

(* Load a parsed file into a registry. Re-declaring an existing type is
   tolerated (its associated-type bindings are extended); re-declaring a
   concept raises [Registry.Duplicate]. *)
let load_items reg items =
  List.iter
    (function
      | Iconcept c -> Registry.declare_concept reg c
      | Itype { name; assoc } -> (
        match Registry.find_type reg name with
        | None -> Registry.declare_type reg name ~assoc
        | Some td ->
          Registry.set_assoc reg name
            (td.Registry.td_assoc
            @ List.filter
                (fun (f, _) -> not (List.mem_assoc f td.Registry.td_assoc))
                assoc))
      | Iop { name; params; ret } -> Registry.declare_op reg name params ret
      | Imodel { concept; args; axioms } ->
        Registry.declare_model reg concept args ~axioms)
    items

let load_string reg src = load_items reg (parse_string src)

(* ------------------------------------------------------------------ *)
(* Printer (round-trips through the parser)                            *)
(* ------------------------------------------------------------------ *)

let needs_quotes name =
  name = "" || not (String.for_all is_id_char name)

let pp_tyname ppf name =
  if needs_quotes name then Fmt.pf ppf "%S" name else Fmt.string ppf name

let rec pp_ty ppf = function
  | Ctype.Named n -> pp_tyname ppf n
  | Ctype.Var v -> Fmt.string ppf v
  | Ctype.Assoc (base, f) -> Fmt.pf ppf "%a.%s" pp_ty base f
  | Ctype.App (f, args) ->
    Fmt.pf ppf "%s<%a>" f Fmt.(list ~sep:(any ", ") pp_ty) args

let pp_usage ppf (name, args) =
  Fmt.pf ppf "%s<%a>" name Fmt.(list ~sep:(any ", ") pp_ty) args

let pp_requirement ppf = function
  | Concept.Assoc_type { at_name; at_constraints } ->
    let pp_clause ppf = function
      | Concept.Models (c, args) -> Fmt.pf ppf "models %a" pp_usage (c, args)
      | Concept.Same_type (_, b) -> Fmt.pf ppf "== %a" pp_ty b
    in
    if at_constraints = [] then Fmt.pf ppf "type %s;" at_name
    else
      Fmt.pf ppf "type %s where %a;" at_name
        Fmt.(list ~sep:(any ", ") pp_clause)
        at_constraints
  | Concept.Operation s ->
    Fmt.pf ppf "%s : %a -> %a;" s.Concept.op_name
      Fmt.(list ~sep:(any ", ") pp_ty)
      s.Concept.op_params pp_ty s.Concept.op_return
  | Concept.Constraint (Concept.Models (c, args)) ->
    Fmt.pf ppf "requires %a;" pp_usage (c, args)
  | Concept.Constraint (Concept.Same_type (a, b)) ->
    Fmt.pf ppf "same %a == %a;" pp_ty a pp_ty b
  | Concept.Axiom a ->
    if a.Concept.ax_vars = [] then
      Fmt.pf ppf "axiom %s: %S;" a.Concept.ax_name a.Concept.ax_statement
    else
      Fmt.pf ppf "axiom %s(%a): %S;" a.Concept.ax_name
        Fmt.(list ~sep:(any ", ") string)
        a.Concept.ax_vars a.Concept.ax_statement
  | Concept.Complexity_guarantee cg ->
    Fmt.pf ppf "complexity %s %a%s;" cg.Concept.cg_op Complexity.pp
      cg.Concept.cg_bound
      (if cg.Concept.cg_amortized then " amortized" else "")

let pp_concept ppf (c : Concept.t) =
  let pp_refines ppf = function
    | [] -> ()
    | us -> Fmt.pf ppf " refines %a" Fmt.(list ~sep:(any ", ") pp_usage) us
  in
  Fmt.pf ppf "@[<v2>concept %s<%a>%a {@,%a@]@,}" c.Concept.name
    Fmt.(list ~sep:(any ", ") string)
    c.Concept.params pp_refines c.Concept.refines
    Fmt.(list ~sep:cut pp_requirement)
    c.Concept.requirements

let to_source (c : Concept.t) = Fmt.str "%a" pp_concept c
