(* A C++-flavoured surface syntax for the checked language, so STLlint
   runs on program text (gp lint --file prog.cxx). The grammar mirrors
   the AST:

     program   ::= stmt*
     stmt      ::= decl | iter-stmt | member | algo-stmt | while | if
     decl      ::= ("vector"|"list"|"deque"|"istream") ident ["sorted"] ";"
     iter-stmt ::= "iter" ident "=" rhs ";"        declaration
                 | ident "=" rhs ";"               assignment
                 | "++" ident ";" | "--" ident ";"
                 | "*" ident ";"                   deref for effect
                 | "*" ident "=" expr ";"          deref write
     rhs       ::= ident ".begin()" | ident ".end()" | "singular"
                 | ident ".erase(" ident ")"
                 | ident ".insert(" ident "," expr ")"
                 | algo-call
                 | ident                           copy of an iterator
     member    ::= ident ".push_back(" expr ")" ";"
                 | ident ".push_front(" expr ")" ";"
                 | ident ".pop_back()" ";"
                 | ident ".erase(" ident ")" ";"
                 | ident ".insert(" ident "," expr ")" ";"
     algo-stmt ::= algo-call ";"
     algo-call ::= ident "(" arg ("," arg)* ")"
     arg       ::= ident                container range OR iterator OR pred
                 | ident ".." ident     explicit iterator range
                 | integer              a value
                 | "*" ident            dereference value
     while     ::= "while" "(" cond ")" "{" stmt* "}"
     if        ::= "if" "(" cond ")" "{" stmt* "}" ["else" "{" stmt* "}"]
     cond      ::= ident "!=" ident | ident "==" ident | expr
     expr      ::= integer | "*" ident | ident | ident "(" expr* ")"

   Whether a bare identifier argument is a container range, an iterator,
   or an opaque predicate is resolved against the declarations seen so
   far — the same contextual typing a real frontend performs.

   The tokens come from [Gp_concepts.Lex] under [syntax] below: [// ...]
   comments, no strings or floats. A [Parse_error] is [Lex]'s error. *)

module Lex = Gp_concepts.Lex
open Lex

exception Parse_error = Lex.Error

let syntax =
  Lex.syntax ~punct:"(){},;*=.<>"
    ~pairs:[ "++"; "--"; "!="; "=="; ".." ] ~strings:false ~floats:false
    ~comments:true

(* The lexer and the declarations seen so far, which type bare
   identifiers. *)
type stream = {
  lx : Lex.t;
  mutable containers : (string * Ast.container_kind) list;
  mutable iters : string list;
}

let mk src = { lx = make syntax src; containers = []; iters = [] }
let shift s = shift s.lx
let expect s p = expect s.lx p
let accept s p = accept s.lx p
let ident s = ident s.lx

(* the blanks [String.trim] removes *)
let is_blank = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

let rec skip_blank src i stop =
  if i < stop && is_blank src.[i] then skip_blank src (i + 1) stop else i

let rec trim_blank src i j =
  if j > i && is_blank src.[j - 1] then trim_blank src i (j - 1) else j

(* Source text for labels: the first line of the statement, trimmed, so a
   compound statement's diagnostic points at its head. Found in place:
   only the label itself is copied. *)
let label_of src start stop =
  let i = skip_blank src start stop in
  let j = trim_blank src i (min stop (to_eol src i)) in
  String.sub src i (j - i)

let rec is_iter x = function
  | [] -> false
  | y :: rest -> String.equal x y || is_iter x rest

let rec is_container x = function
  | [] -> false
  | (y, _) :: rest -> String.equal x y || is_container x rest

(* [item ("," item)*] ")", after the "(" *)
let call_args item s =
  let rec commas () =
    let first = item s in
    if accept s "," then first :: commas () else [ first ]
  in
  if accept s ")" then []
  else begin
    let args = commas () in
    expect s ")";
    args
  end

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

let rec parse_expr s =
  match s.lx.tok with
  | Int k ->
    shift s;
    Ast.Const k
  | Punct "*" ->
    shift s;
    Ast.Deref (ident s)
  | Id f ->
    shift s;
    if accept s "(" then Ast.Call (f, call_args parse_expr s) else Ast.Var f
  | _ -> error s.lx "expected an expression"

let parse_cond s =
  match s.lx.tok with
  | Id a when is_iter a s.iters -> (
    let a = ident s in
    if accept s "!=" then Ast.Iter_ne (a, ident s)
    else if accept s "==" then Ast.Iter_eq (a, ident s)
    else error s.lx "expected '!=' or '==' after iterator %s" a)
  | _ -> Ast.Pred (parse_expr s)

(* ------------------------------------------------------------------ *)
(* Algorithm calls                                                     *)
(* ------------------------------------------------------------------ *)

let parse_arg s =
  match s.lx.tok with
  | Int k ->
    shift s;
    Ast.A_value (Ast.Const k)
  | Punct "*" ->
    shift s;
    Ast.A_value (Ast.Deref (ident s))
  | Id x ->
    shift s;
    if accept s ".." then
      let y = ident s in
      Ast.A_range (Ast.R_iters (x, y))
    else if is_container x s.containers then Ast.A_range (Ast.R_container x)
    else if is_iter x s.iters then Ast.A_iter x
    else Ast.A_pred x
  | _ -> error s.lx "expected an argument"

let parse_algo_call s name =
  expect s "(";
  (name, call_args parse_arg s)

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

let container_kind_of = function
  | "vector" -> Some Ast.Vector
  | "list" -> Some Ast.List_
  | "deque" -> Some Ast.Deque
  | "istream" -> Some Ast.Istream
  | _ -> None

(* right-hand sides of iterator bindings *)
let parse_rhs s ~result_name =
  match s.lx.tok with
  | Id "singular" ->
    shift s;
    `Init Ast.Singular_init
  | Id x when is_container x s.containers -> (
    shift s;
    expect s ".";
    let at = s.lx.start in
    let m = ident s in
    match m with
    | "begin" ->
      expect s "(";
      expect s ")";
      `Init (Ast.Begin_of x)
    | "end" ->
      expect s "(";
      expect s ")";
      `Init (Ast.End_of x)
    | "erase" ->
      expect s "(";
      let at = ident s in
      expect s ")";
      `Stmt (Ast.Erase { container = x; at; result = Some result_name })
    | "insert" ->
      expect s "(";
      let at = ident s in
      expect s ",";
      let v = parse_expr s in
      expect s ")";
      `Stmt (Ast.Insert { container = x; at; value = v; result = Some result_name })
    | _ -> error_at s.lx at "container %s has no member %s usable here" x m)
  | Id x when is_iter x s.iters ->
    shift s;
    `Init (Ast.Copy_of x)
  | Id algo -> (
    let at = s.lx.start in
    shift s;
    match s.lx.tok with
    | Punct "(" ->
      let name, args = parse_algo_call s algo in
      `Stmt (Ast.Algo { algo = name; args; result = Some result_name })
    | _ -> error_at s.lx at "unknown name %s on the right of '='" algo)
  | _ -> error s.lx "expected an iterator initialiser"

let rec parse_stmt s =
  let start = s.lx.start in
  let finish node = { Ast.label = label_of s.lx.src start s.lx.pos; node } in
  match s.lx.tok with
  | Id kw when Option.is_some (container_kind_of kw) ->
    let kind = Option.get (container_kind_of kw) in
    shift s;
    (* optional template argument: vector<int> *)
    if accept s "<" then begin
      (match s.lx.tok with Id _ -> shift s | _ -> ());
      expect s ">"
    end;
    let name = ident s in
    let sorted = (match s.lx.tok with Id "sorted" -> shift s; true | _ -> false) in
    expect s ";";
    s.containers <- (name, kind) :: s.containers;
    finish (Ast.Decl_container { name; kind; sorted })
  | Id "iter" when not (match peek s.lx with Punct "=" -> true | _ -> false) -> (
    (* 'iter' introduces a declaration unless the next token is '=', in
       which case it is an ordinary variable named iter (as in the
       paper's own Fig. 4 listing) *)
    shift s;
    let name = ident s in
    s.iters <- name :: s.iters;
    expect s "=";
    match parse_rhs s ~result_name:name with
    | `Init init ->
      expect s ";";
      finish (Ast.Decl_iter { name; init })
    | `Stmt node ->
      expect s ";";
      finish node)
  | Id "while" ->
    shift s;
    expect s "(";
    let cond = parse_cond s in
    expect s ")";
    expect s "{";
    let body = parse_block s in
    finish (Ast.While (cond, body))
  | Id "if" ->
    shift s;
    expect s "(";
    let cond = parse_cond s in
    expect s ")";
    expect s "{";
    let then_ = parse_block s in
    let else_ =
      match s.lx.tok with
      | Id "else" ->
        shift s;
        expect s "{";
        parse_block s
      | _ -> []
    in
    finish (Ast.If (cond, then_, else_))
  | Punct "++" ->
    shift s;
    let x = ident s in
    expect s ";";
    finish (Ast.Incr x)
  | Punct "--" ->
    shift s;
    let x = ident s in
    expect s ";";
    finish (Ast.Decr x)
  | Punct "*" -> (
    shift s;
    let x = ident s in
    if accept s "=" then begin
      let e = parse_expr s in
      expect s ";";
      finish (Ast.Deref_write (x, e))
    end
    else begin
      expect s ";";
      finish (Ast.Deref_read x)
    end)
  | Id x when is_container x s.containers -> (
    shift s;
    expect s ".";
    let at = s.lx.start in
    let m = ident s in
    expect s "(";
    match m with
    | "push_back" | "push_front" ->
      let e = parse_expr s in
      expect s ")";
      expect s ";";
      finish
        (if m = "push_back" then Ast.Push_back (x, e)
         else Ast.Push_front (x, e))
    | "pop_back" ->
      expect s ")";
      expect s ";";
      finish (Ast.Pop_back x)
    | "erase" ->
      let at = ident s in
      expect s ")";
      expect s ";";
      finish (Ast.Erase { container = x; at; result = None })
    | "insert" ->
      let at = ident s in
      expect s ",";
      let v = parse_expr s in
      expect s ")";
      expect s ";";
      finish (Ast.Insert { container = x; at; value = v; result = None })
    | _ -> error_at s.lx at "unknown container member %s" m)
  | Id x when is_iter x s.iters ->
    (* iterator reassignment *)
    shift s;
    expect s "=";
    (match parse_rhs s ~result_name:x with
    | `Init init ->
      expect s ";";
      finish (Ast.Assign_iter { name = x; init })
    | `Stmt node ->
      expect s ";";
      finish node)
  | Id algo -> (
    let at = s.lx.start in
    shift s;
    match s.lx.tok with
    | Punct "(" ->
      let name, args = parse_algo_call s algo in
      expect s ";";
      finish (Ast.Algo { algo = name; args; result = None })
    | _ -> error_at s.lx at "unexpected statement starting with %s" algo)
  | _ -> error s.lx "expected a statement"

and parse_block s =
  let rec go acc =
    if accept s "}" then List.rev acc else go (parse_stmt s :: acc)
  in
  go []

let parse_program src =
  let s = mk src in
  let rec go acc =
    match s.lx.tok with
    | Eof -> List.rev acc
    | _ -> go (parse_stmt s :: acc)
  in
  go []

(* Parse then check: the complete pipeline. *)
let check_source src = Interp.check (parse_program src)
