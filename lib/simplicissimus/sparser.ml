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
   x + neg(y) for group carriers, matching the IR's inverse form.

   The tokens come from [Gp_concepts.Lex] under [syntax] below, one at a
   time: string literals and floats, no comments ("/" is an operator).
   A [Parse_error] is [Lex]'s error: at the offending character, or at
   the first byte of the offending token. *)

module Lex = Gp_concepts.Lex
open Lex

exception Parse_error = Lex.Error

let syntax =
  Lex.syntax ~punct:"()+-*&|^./:" ~pairs:[ "&&"; "||" ]
    ~strings:true ~floats:true ~comments:false

(* the carrier rows' element types, and the LiDIA rule's bigfloat *)
let known_types = "bigfloat" :: List.sort_uniq compare
    (List.map (fun c -> c.Gp_algebra.Decls.c_elem) Gp_algebra.Decls.carriers)

let addops = [ "+"; "-"; "||"; "|" ]
let mulops = [ "*"; "&&"; "&"; "^"; "."; "/" ]

(* carrier type checking: both operands must share a type; a mismatch
   is reported at the operator, which starts at byte [at] *)
let combine s ~at op a b =
  let ta = Expr.type_of a and tb = Expr.type_of b in
  if ta <> tb then
    error_at s at "operands of %s have different types (%s vs %s)" op ta tb;
  match op with
  | "-" ->
    (* desugar to the IR's inverse form: a + neg(b) *)
    Expr.binop "+" a (Expr.unop "neg" b)
  | _ -> Expr.binop op a b

let rec parse_expr s =
  let rec go acc =
    match s.tok with
    | Punct op when List.mem op addops ->
      let at = s.start in
      shift s;
      go (combine s ~at op acc (parse_mul s))
    | _ -> acc
  in
  go (parse_mul s)

and parse_mul s =
  let rec go acc =
    match s.tok with
    | Punct op when List.mem op mulops ->
      let at = s.start in
      shift s;
      go (combine s ~at op acc (parse_atom s))
    | _ -> acc
  in
  go (parse_atom s)

and parse_atom s =
  match s.tok with
  | Int k ->
    shift s;
    Expr.int k
  | Float f ->
    shift s;
    Expr.float f
  | Str str ->
    shift s;
    Expr.string str
  | Punct "(" ->
    shift s;
    let e = parse_expr s in
    expect s ")";
    e
  | Id "true" ->
    shift s;
    Expr.bool true
  | Id "false" ->
    shift s;
    Expr.bool false
  | Id name -> (
    shift s;
    match s.tok with
    | Punct "(" ->
      (* unary application: neg(x), inv(x), Inverse(f), ... *)
      shift s;
      let arg = parse_expr s in
      expect s ")";
      Expr.unop name arg
    | Punct ":" -> (
      shift s;
      match s.tok with
      | Id ty when List.mem ty known_types ->
        shift s;
        Expr.Var (name, ty)
      | Id ty -> error s "unknown type %s" ty
      | _ -> error s "expected a type after ':'")
    | _ -> Expr.Var (name, "int"))
  | Punct ")" -> error s "unexpected ')'"
  | Punct ":" -> error s "unexpected ':'"
  | Punct op -> error s "unexpected operator %s" op
  | Eof -> error s "unexpected end of expression"

let rec drain s =
  match s.tok with
  | Eof -> ()
  | _ ->
    shift s;
    drain s

(* A malformed token anywhere in the text is reported before a grammar
   error, so on an error the rest of the text is lexed first: its first
   malformed token, if any, is the error. *)
let parse src =
  let s = make syntax src in
  match
    let e = parse_expr s in
    match s.tok with
    | Eof -> e
    | _ -> error s "trailing input after expression"
  with
  | e -> e
  | exception (Parse_error _ as err) ->
    drain s;
    raise err
