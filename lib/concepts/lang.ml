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
   parsed as parameters; everything else is a named type. Comments:
   [// ...] to end of line. *)

(* ------------------------------------------------------------------ *)
(* Lexer                                                               *)
(* ------------------------------------------------------------------ *)

type token =
  | Tid of string
  | Tstring of string
  | Tint of int
  | Tpunct of string (* < > { } ( ) , ; : == -> . ^ *)
  | Teof

type lexer_state = {
  src : string;
  mutable pos : int;
  mutable line : int;
  mutable col : int;
}

exception Parse_error of { line : int; col : int; message : string }

let error st fmt =
  Fmt.kstr
    (fun message ->
      raise (Parse_error { line = st.line; col = st.col; message }))
    fmt

(* The lexer scans [src] in place. An identifier, integer or string is
   one [String.sub]. [col] counts bytes, a newline resetting it to 1. *)
let is_digit c = c >= '0' && c <= '9'

let is_id_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || is_digit c || c = '_'

(* Advance over [len] bytes that hold no newline. *)
let skip st len =
  st.pos <- st.pos + len;
  st.col <- st.col + len

let take st len tok =
  skip st len;
  tok

let rec to_eol src i =
  if i < String.length src && src.[i] <> '\n' then to_eol src (i + 1) else i

(* Blanks and [// ...] comments; a comment stops in front of its
   newline. *)
let rec skip_ws st =
  let src = st.src and i = st.pos in
  if i < String.length src then
    match src.[i] with
    | '\n' ->
      st.pos <- i + 1;
      st.line <- st.line + 1;
      st.col <- 1;
      skip_ws st
    | ' ' | '\t' | '\r' ->
      skip st 1;
      skip_ws st
    | '/' when i + 1 < String.length src && src.[i + 1] = '/' ->
      skip st (to_eol src i - i);
      skip_ws st
    | _ -> ()

let rec scan_end p src i =
  if i < String.length src && p src.[i] then scan_end p src (i + 1) else i

(* One-character punctuation as shared tokens, indexed by the character
   ([Teof] for any other character). *)
let punct =
  Array.init 256 (fun code ->
      let c = Char.chr code in
      if String.contains "<>{}(),;:.^+=" c then Tpunct (String.make 1 c)
      else Teof)

(* A string literal opening at [i]; its body may span lines. *)
let string_literal st i =
  let src = st.src in
  let j =
    Option.value ~default:(String.length src)
      (String.index_from_opt src (i + 1) '"')
  in
  for k = i to j - 1 do
    if src.[k] = '\n' then begin
      st.line <- st.line + 1;
      st.col <- 1
    end
    else st.col <- st.col + 1
  done;
  st.pos <- j;
  if j = String.length src then error st "unterminated string literal";
  take st 1 (Tstring (String.sub src (i + 1) (j - i - 1)))

let next_token st =
  skip_ws st;
  let src = st.src and i = st.pos in
  if i >= String.length src then Teof
  else
    match src.[i] with
    | '"' -> string_literal st i
    | '0' .. '9' -> (
      let j = scan_end is_digit src i in
      let text = String.sub src i (j - i) in
      match int_of_string_opt text with
      | Some k -> take st (j - i) (Tint k)
      | None -> error st "integer literal %s is out of range" text)
    | c when is_id_char c ->
      let j = scan_end is_id_char src i in
      take st (j - i) (Tid (String.sub src i (j - i)))
    | c -> (
      let c2 = if i + 1 < String.length src then src.[i + 1] else ' ' in
      match (c, c2) with
      | '-', '>' -> take st 2 (Tpunct "->")
      | '=', '=' -> take st 2 (Tpunct "==")
      | _ -> (
        match punct.(Char.code c) with
        | Teof -> error st "unexpected character %c" c
        | tok -> take st 1 tok))

(* A one-token-lookahead stream. *)
type stream = { lex : lexer_state; mutable tok : token }

let make_stream src =
  let lex = { src; pos = 0; line = 1; col = 1 } in
  { lex; tok = next_token lex }

let shift s = s.tok <- next_token s.lex

let expect_punct s p =
  match s.tok with
  | Tpunct q when q = p -> shift s
  | _ -> error s.lex "expected '%s'" p

let expect_id s =
  match s.tok with
  | Tid x ->
    shift s;
    x
  | _ -> error s.lex "expected an identifier"

let accept_punct s p =
  match s.tok with
  | Tpunct q when q = p ->
    shift s;
    true
  | _ -> false

let accept_id s word =
  match s.tok with
  | Tid x when x = word ->
    shift s;
    true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Type expressions                                                    *)
(* ------------------------------------------------------------------ *)

(* [params]: identifiers to parse as concept parameters. *)
let rec parse_ty s ~params =
  let atom =
    match s.tok with
    | Tstring name ->
      shift s;
      Ctype.Named name
    | Tid name ->
      shift s;
      if accept_punct s "<" then begin
        let args = parse_ty_list s ~params in
        expect_punct s ">";
        Ctype.App (name, args)
      end
      else if List.mem name params then Ctype.Var name
      else Ctype.Named name
    | _ -> error s.lex "expected a type"
  in
  let rec projections base =
    if accept_punct s "." then begin
      let field = expect_id s in
      projections (Ctype.Assoc (base, field))
    end
    else base
  in
  projections atom

and parse_ty_list s ~params =
  let first = parse_ty s ~params in
  if accept_punct s "," then first :: parse_ty_list s ~params
  else [ first ]

let parse_usage s ~params =
  let name =
    match s.tok with
    | Tid x ->
      shift s;
      x
    | _ -> error s.lex "expected a concept name"
  in
  expect_punct s "<";
  let args = parse_ty_list s ~params in
  expect_punct s ">";
  (name, args)

(* ------------------------------------------------------------------ *)
(* Complexity expressions                                              *)
(* ------------------------------------------------------------------ *)

let parse_bigO s =
  (match s.tok with
  | Tid "O" -> shift s
  | _ -> error s.lex "expected O(...)");
  expect_punct s "(";
  let parse_factor () =
    match s.tok with
    | Tint 1 ->
      shift s;
      Complexity.constant
    | Tid "log" ->
      shift s;
      let v = expect_id s in
      Complexity.log_ v
    | Tid v ->
      shift s;
      if accept_punct s "^" then begin
        match s.tok with
        | Tint k ->
          shift s;
          Complexity.power v k
        | _ -> error s.lex "expected an exponent"
      end
      else Complexity.linear v
    | _ -> error s.lex "expected a complexity factor"
  in
  let rec parse_term acc =
    match s.tok with
    | Tint 1 | Tid _ -> parse_term (Complexity.mul acc (parse_factor ()))
    | _ -> acc
  in
  let rec parse_sum acc =
    if accept_punct s "+" then
      parse_sum (Complexity.add acc (parse_term (parse_factor ())))
    else acc
  in
  ignore parse_sum;
  let first = parse_term (parse_factor ()) in
  let rec sums acc =
    match s.tok with
    | Tpunct "+" ->
      shift s;
      sums (Complexity.add acc (parse_term (parse_factor ())))
    | _ -> acc
  in
  let result = sums first in
  expect_punct s ")";
  result

(* ------------------------------------------------------------------ *)
(* Concepts                                                            *)
(* ------------------------------------------------------------------ *)

let parse_where_clauses s ~params ~self =
  (* where models Foo<...>, == ty, ... applied to associated type [self] *)
  let rec go acc =
    let clause =
      if accept_id s "models" then
        let name, args = parse_usage s ~params in
        Concept.Models (name, args)
      else if accept_punct s "==" then
        let ty = parse_ty s ~params in
        Concept.Same_type (self, ty)
      else error s.lex "expected 'models' or '=='"
    in
    let acc = clause :: acc in
    if accept_punct s "," then go acc else List.rev acc
  in
  go []

let parse_requirement s ~params ~owner =
  if accept_id s "type" then begin
    let name = expect_id s in
    let self = Ctype.Assoc (Ctype.Var owner, name) in
    let constraints =
      if accept_id s "where" then parse_where_clauses s ~params ~self else []
    in
    expect_punct s ";";
    Concept.assoc_type ~constraints name
  end
  else if accept_id s "axiom" then begin
    let name = expect_id s in
    let vars =
      if accept_punct s "(" then begin
        let rec ids acc =
          let x = expect_id s in
          if accept_punct s "," then ids (x :: acc) else List.rev (x :: acc)
        in
        let vs = ids [] in
        expect_punct s ")";
        vs
      end
      else []
    in
    expect_punct s ":";
    let statement =
      match s.tok with
      | Tstring str ->
        shift s;
        str
      | _ -> error s.lex "expected a quoted axiom statement"
    in
    expect_punct s ";";
    Concept.axiom ~vars name statement
  end
  else if accept_id s "complexity" then begin
    let op = expect_id s in
    let bound = parse_bigO s in
    let amortized = accept_id s "amortized" in
    expect_punct s ";";
    Concept.complexity ~amortized op bound
  end
  else if accept_id s "requires" then begin
    let name, args = parse_usage s ~params in
    expect_punct s ";";
    Concept.Constraint (Concept.Models (name, args))
  end
  else if accept_id s "same" then begin
    let a = parse_ty s ~params in
    expect_punct s "==";
    let b = parse_ty s ~params in
    expect_punct s ";";
    Concept.Constraint (Concept.Same_type (a, b))
  end
  else begin
    (* operation: name : ty, ty -> ty ; *)
    let name = expect_id s in
    expect_punct s ":";
    let params_tys =
      match s.tok with
      | Tpunct "->" -> []
      | _ ->
        let rec tys acc =
          let ty = parse_ty s ~params in
          if accept_punct s "," then tys (ty :: acc)
          else List.rev (ty :: acc)
        in
        tys []
    in
    expect_punct s "->";
    let ret = parse_ty s ~params in
    expect_punct s ";";
    Concept.signature name params_tys ret
  end

let parse_concept s =
  let name = expect_id s in
  expect_punct s "<";
  let rec param_ids acc =
    let x = expect_id s in
    if accept_punct s "," then param_ids (x :: acc) else List.rev (x :: acc)
  in
  let params = param_ids [] in
  expect_punct s ">";
  let refines =
    if accept_id s "refines" then begin
      let rec usages acc =
        let u = parse_usage s ~params in
        if accept_punct s "," then usages (u :: acc) else List.rev (u :: acc)
      in
      usages []
    end
    else []
  in
  expect_punct s "{";
  let owner = List.hd params in
  let rec reqs acc =
    match s.tok with
    | Tpunct "}" ->
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
      | Tid x ->
        shift s;
        x
      | Tstring x ->
        shift s;
        x
      | _ -> error s.lex "expected a type name"
    in
    let assoc =
      if accept_punct s "{" then begin
        let rec fields acc =
          match s.tok with
          | Tpunct "}" ->
            shift s;
            List.rev acc
          | _ ->
            let f = expect_id s in
            expect_punct s "=";
            let ty = parse_ty s ~params:[] in
            expect_punct s ";";
            fields ((f, ty) :: acc)
        in
        fields []
      end
      else []
    in
    ignore (accept_punct s ";");
    Some (Itype { name; assoc })
  end
  else if accept_id s "op" then begin
    let name = expect_id s in
    expect_punct s ":";
    let params =
      match s.tok with
      | Tpunct "->" -> []
      | _ ->
        let rec tys acc =
          let ty = parse_ty s ~params:[] in
          if accept_punct s "," then tys (ty :: acc)
          else List.rev (ty :: acc)
        in
        tys []
    in
    expect_punct s "->";
    let ret = parse_ty s ~params:[] in
    expect_punct s ";";
    Some (Iop { name; params; ret })
  end
  else if accept_id s "model" then begin
    let concept, args = parse_usage s ~params:[] in
    let axioms =
      if accept_id s "asserting" then begin
        let rec ids acc =
          let x = expect_id s in
          if accept_punct s "," then ids (x :: acc) else List.rev (x :: acc)
        in
        ids []
      end
      else []
    in
    expect_punct s ";";
    Some (Imodel { concept; args; axioms })
  end
  else
    match s.tok with
    | Teof -> None
    | _ -> error s.lex "expected 'concept', 'type', 'op' or 'model'"

let parse_string src =
  let s = make_stream src in
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
