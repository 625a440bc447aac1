(* A surface syntax for the expression IR, so the optimizer runs on
   expression text (gp optimize --expr "x*1 + (0 - 0)").

     expr   ::= mul (addop mul)*          addop ::= "+" | "-" | "||" | "|"
     mul    ::= atom (mulop atom)*        mulop ::= "*" | "&&" | "&" | "^" | "."
     atom   ::= integer | float | "true" | "false" | string-literal
              | ident [":" type]          variable (default type int)
              | ident "(" expr ")"        unary application: neg(x), inv(x), ...
              | "(" expr ")"

   Operand carrier types must agree per operation; variables default to
   int unless annotated ("f:float * 1.0"). Binary "-" desugars to
   x + neg(y) for group carriers, matching the IR's inverse form. *)

exception Parse_error of string

let fail fmt = Fmt.kstr (fun m -> raise (Parse_error m)) fmt

type token =
  | Tint of int
  | Tfloat of float
  | Tstr of string
  | Tid of string
  | Top of string
  | Tlparen
  | Trparen
  | Tcolon
  | Teof

let tokenize src =
  let n = String.length src in
  let toks = ref [] in
  let i = ref 0 in
  let peek () = if !i < n then Some src.[!i] else None in
  let is_digit c = c >= '0' && c <= '9' in
  let is_id c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || is_digit c || c = '_'
  in
  while !i < n do
    match src.[!i] with
    | ' ' | '\t' | '\n' | '\r' -> incr i
    | '(' ->
      toks := Tlparen :: !toks;
      incr i
    | ')' ->
      toks := Trparen :: !toks;
      incr i
    | ':' ->
      toks := Tcolon :: !toks;
      incr i
    | '"' ->
      let b = Buffer.create 8 in
      incr i;
      while peek () <> Some '"' && peek () <> None do
        Buffer.add_char b src.[!i];
        incr i
      done;
      if peek () = None then fail "unterminated string";
      incr i;
      toks := Tstr (Buffer.contents b) :: !toks
    | c when is_digit c ->
      let start = !i in
      while (match peek () with Some c -> is_digit c || c = '.' | None -> false) do
        incr i
      done;
      let text = String.sub src start (!i - start) in
      let tok =
        match
          if String.contains text '.' then Tfloat (float_of_string text)
          else Tint (int_of_string text)
        with
        | tok -> tok
        | exception Failure _ -> fail "malformed number %s" text
      in
      toks := tok :: !toks
    | c when is_id c ->
      let start = !i in
      while (match peek () with Some c -> is_id c | None -> false) do
        incr i
      done;
      toks := Tid (String.sub src start (!i - start)) :: !toks
    | '&' when !i + 1 < n && src.[!i + 1] = '&' ->
      toks := Top "&&" :: !toks;
      i := !i + 2
    | '|' when !i + 1 < n && src.[!i + 1] = '|' ->
      toks := Top "||" :: !toks;
      i := !i + 2
    | ('+' | '-' | '*' | '&' | '|' | '^' | '.' | '/') as c ->
      toks := Top (String.make 1 c) :: !toks;
      incr i
    | c -> fail "unexpected character %c" c
  done;
  List.rev (Teof :: !toks)

type stream = { mutable toks : token list }

let peek s = match s.toks with t :: _ -> t | [] -> Teof
let shift s = match s.toks with _ :: rest -> s.toks <- rest | [] -> ()

let known_types = [ "int"; "float"; "bool"; "string"; "rational"; "matrix";
                    "invertible_matrix"; "bigfloat" ]

let addops = [ "+"; "-"; "||"; "|" ]
let mulops = [ "*"; "&&"; "&"; "^"; "."; "/" ]

(* carrier type checking: both operands must share a type *)
let combine op a b =
  let ta = Expr.type_of a and tb = Expr.type_of b in
  if ta <> tb then
    fail "operands of %s have different types (%s vs %s)" op ta tb;
  match op with
  | "-" ->
    (* desugar to the IR's inverse form: a + neg(b) *)
    Expr.binop "+" a (Expr.unop "neg" b)
  | _ -> Expr.binop op a b

let rec parse_expr s =
  let rec go acc =
    match peek s with
    | Top op when List.mem op addops ->
      shift s;
      go (combine op acc (parse_mul s))
    | _ -> acc
  in
  go (parse_mul s)

and parse_mul s =
  let rec go acc =
    match peek s with
    | Top op when List.mem op mulops ->
      shift s;
      go (combine op acc (parse_atom s))
    | _ -> acc
  in
  go (parse_atom s)

and parse_atom s =
  match peek s with
  | Tint k ->
    shift s;
    Expr.int k
  | Tfloat f ->
    shift s;
    Expr.float f
  | Tstr str ->
    shift s;
    Expr.string str
  | Tlparen ->
    shift s;
    let e = parse_expr s in
    (match peek s with
    | Trparen -> shift s
    | _ -> fail "expected ')'");
    e
  | Tid "true" ->
    shift s;
    Expr.bool true
  | Tid "false" ->
    shift s;
    Expr.bool false
  | Tid name -> (
    shift s;
    match peek s with
    | Tlparen ->
      (* unary application: neg(x), inv(x), Inverse(f), ... *)
      shift s;
      let arg = parse_expr s in
      (match peek s with
      | Trparen -> shift s
      | _ -> fail "expected ')'");
      Expr.unop name arg
    | Tcolon -> (
      shift s;
      match peek s with
      | Tid ty when List.mem ty known_types ->
        shift s;
        Expr.Var (name, ty)
      | Tid ty -> fail "unknown type %s" ty
      | _ -> fail "expected a type after ':'")
    | _ -> Expr.Var (name, "int"))
  | Top op -> fail "unexpected operator %s" op
  | Trparen -> fail "unexpected ')'"
  | Tcolon -> fail "unexpected ':'"
  | Teof -> fail "unexpected end of expression"

let parse src =
  let s = { toks = tokenize src } in
  let e = parse_expr s in
  match peek s with
  | Teof -> e
  | _ -> fail "trailing input after expression"
