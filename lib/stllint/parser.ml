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
   far — the same contextual typing a real frontend performs. Comments
   are [// ...]. *)

exception Parse_error of { line : int; message : string }

type token =
  | Tid of string
  | Tint of int
  | Tp of string (* punctuation *)
  | Teof

(* The lexer scans [src] in place: [pos] is the next unread byte and
   [start] the first byte of the token last returned. An identifier or
   integer is one [String.sub]. *)
type lexer = {
  src : string;
  mutable pos : int;
  mutable line : int;
  mutable start : int;
}

let error lx fmt =
  Fmt.kstr (fun message -> raise (Parse_error { line = lx.line; message })) fmt

let is_digit c = c >= '0' && c <= '9'

let is_id c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || is_digit c || c = '_'

let rec to_eol src i =
  if i < String.length src && src.[i] <> '\n' then to_eol src (i + 1) else i

(* Blanks and [// ...] comments, counting newlines; a comment stops in
   front of its newline. *)
let rec skip_ws lx =
  let src = lx.src and i = lx.pos in
  if i < String.length src then
    match src.[i] with
    | '\n' ->
      lx.line <- lx.line + 1;
      lx.pos <- i + 1;
      skip_ws lx
    | ' ' | '\t' | '\r' ->
      lx.pos <- i + 1;
      skip_ws lx
    | '/' when i + 1 < String.length src && src.[i + 1] = '/' ->
      lx.pos <- to_eol src (i + 2);
      skip_ws lx
    | _ -> ()

let rec scan_end p src i =
  if i < String.length src && p src.[i] then scan_end p src (i + 1) else i

(* One-character punctuation as shared tokens, indexed by the character
   ([Teof] for any other character). *)
let punct =
  Array.init 256 (fun code ->
      let c = Char.chr code in
      if String.contains "(){},;*=.<>" c then Tp (String.make 1 c) else Teof)

let take lx len tok =
  lx.pos <- lx.pos + len;
  tok

let next lx =
  skip_ws lx;
  let src = lx.src and i = lx.pos in
  lx.start <- i;
  if i >= String.length src then Teof
  else
    match src.[i] with
    | '0' .. '9' -> (
      let j = scan_end is_digit src i in
      let text = String.sub src i (j - i) in
      match int_of_string_opt text with
      | Some k -> take lx (j - i) (Tint k)
      | None -> error lx "integer literal %s is out of range" text)
    | c when is_id c ->
      let j = scan_end is_id src i in
      take lx (j - i) (Tid (String.sub src i (j - i)))
    | c -> (
      let c2 = if i + 1 < String.length src then src.[i + 1] else ' ' in
      match (c, c2) with
      | '+', '+' -> take lx 2 (Tp "++")
      | '-', '-' -> take lx 2 (Tp "--")
      | '!', '=' -> take lx 2 (Tp "!=")
      | '=', '=' -> take lx 2 (Tp "==")
      | '.', '.' -> take lx 2 (Tp "..")
      | _ -> (
        match punct.(Char.code c) with
        | Teof -> error lx "unexpected character %c" c
        | tok -> take lx 1 tok))

type stream = {
  lx : lexer;
  mutable tok : token;
  mutable containers : (string * Ast.container_kind) list;
  mutable iters : string list;
}

let mk src =
  let lx = { src; pos = 0; line = 1; start = 0 } in
  { lx; tok = next lx; containers = []; iters = [] }

let shift s = s.tok <- next s.lx

let expect s p =
  match s.tok with
  | Tp q when q = p -> shift s
  | _ -> error s.lx "expected '%s'" p

let accept s p =
  match s.tok with
  | Tp q when q = p ->
    shift s;
    true
  | _ -> false

let ident s =
  match s.tok with
  | Tid x ->
    shift s;
    x
  | _ -> error s.lx "expected an identifier"

(* One token of extra lookahead, without consuming. *)
let peek_ahead s =
  let lx = s.lx in
  let pos = lx.pos and line = lx.line and start = lx.start in
  let t = next lx in
  lx.pos <- pos;
  lx.line <- line;
  lx.start <- start;
  t

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

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

let rec parse_expr s =
  match s.tok with
  | Tint k ->
    shift s;
    Ast.Const k
  | Tp "*" ->
    shift s;
    Ast.Deref (ident s)
  | Tid f ->
    shift s;
    if accept s "(" then begin
      let args =
        if accept s ")" then []
        else begin
          let rec go acc =
            let e = parse_expr s in
            if accept s "," then go (e :: acc) else List.rev (e :: acc)
          in
          let args = go [] in
          expect s ")";
          args
        end
      in
      Ast.Call (f, args)
    end
    else Ast.Var f
  | _ -> error s.lx "expected an expression"

let parse_cond s =
  match s.tok with
  | Tid a when is_iter a s.iters -> (
    let a = ident s in
    if accept s "!=" then Ast.Iter_ne (a, ident s)
    else if accept s "==" then Ast.Iter_eq (a, ident s)
    else error s.lx "expected '!=' or '==' after iterator %s" a)
  | _ -> Ast.Pred (parse_expr s)

(* ------------------------------------------------------------------ *)
(* Algorithm calls                                                     *)
(* ------------------------------------------------------------------ *)

let parse_arg s =
  match s.tok with
  | Tint k ->
    shift s;
    Ast.A_value (Ast.Const k)
  | Tp "*" ->
    shift s;
    Ast.A_value (Ast.Deref (ident s))
  | Tid x ->
    shift s;
    if accept s ".." then
      let y = ident s in
      Ast.A_range (Ast.R_iters (x, y))
    else if is_container x s.containers then Ast.A_range (Ast.R_container x)
    else if is_iter x s.iters then Ast.A_iter x
    else Ast.A_pred x
  | _ -> error s.lx "expected an argument"

let parse_algo_call s name =
  (* '(' already consumed by caller? no: consume here *)
  expect s "(";
  let args =
    if accept s ")" then []
    else begin
      let rec go acc =
        let a = parse_arg s in
        if accept s "," then go (a :: acc) else List.rev (a :: acc)
      in
      let args = go [] in
      expect s ")";
      args
    end
  in
  (name, args)

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
  match s.tok with
  | Tid "singular" ->
    shift s;
    `Init Ast.Singular_init
  | Tid x when is_container x s.containers -> (
    shift s;
    expect s ".";
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
    | _ -> error s.lx "container %s has no member %s usable here" x m)
  | Tid x when is_iter x s.iters ->
    shift s;
    `Init (Ast.Copy_of x)
  | Tid algo -> (
    shift s;
    match s.tok with
    | Tp "(" ->
      let name, args = parse_algo_call s algo in
      `Stmt (Ast.Algo { algo = name; args; result = Some result_name })
    | _ -> error s.lx "unknown name %s on the right of '='" algo)
  | _ -> error s.lx "expected an iterator initialiser"

let rec parse_stmt s =
  let start = s.lx.start in
  let finish node = { Ast.label = label_of s.lx.src start s.lx.pos; node } in
  match s.tok with
  | Tid kw when Option.is_some (container_kind_of kw) ->
    let kind = Option.get (container_kind_of kw) in
    shift s;
    (* optional template argument: vector<int> *)
    if accept s "<" then begin
      (match s.tok with Tid _ -> shift s | _ -> ());
      expect s ">"
    end;
    let name = ident s in
    let sorted = (match s.tok with Tid "sorted" -> shift s; true | _ -> false) in
    expect s ";";
    s.containers <- (name, kind) :: s.containers;
    finish (Ast.Decl_container { name; kind; sorted })
  | Tid "iter" when not (match peek_ahead s with Tp "=" -> true | _ -> false) -> (
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
  | Tid "while" ->
    shift s;
    expect s "(";
    let cond = parse_cond s in
    expect s ")";
    expect s "{";
    let body = parse_block s in
    finish (Ast.While (cond, body))
  | Tid "if" ->
    shift s;
    expect s "(";
    let cond = parse_cond s in
    expect s ")";
    expect s "{";
    let then_ = parse_block s in
    let else_ =
      match s.tok with
      | Tid "else" ->
        shift s;
        expect s "{";
        parse_block s
      | _ -> []
    in
    finish (Ast.If (cond, then_, else_))
  | Tp "++" ->
    shift s;
    let x = ident s in
    expect s ";";
    finish (Ast.Incr x)
  | Tp "--" ->
    shift s;
    let x = ident s in
    expect s ";";
    finish (Ast.Decr x)
  | Tp "*" -> (
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
  | Tid x when is_container x s.containers -> (
    shift s;
    expect s ".";
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
    | _ -> error s.lx "unknown container member %s" m)
  | Tid x when is_iter x s.iters ->
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
  | Tid algo -> (
    shift s;
    match s.tok with
    | Tp "(" ->
      let name, args = parse_algo_call s algo in
      expect s ";";
      finish (Ast.Algo { algo = name; args; result = None })
    | _ -> error s.lx "unexpected statement starting with %s" algo)
  | _ -> error s.lx "expected a statement"

and parse_block s =
  let rec go acc =
    if accept s "}" then List.rev acc else go (parse_stmt s :: acc)
  in
  go []

let parse_program src =
  let s = mk src in
  let rec go acc =
    match s.tok with
    | Teof -> List.rev acc
    | _ -> go (parse_stmt s :: acc)
  in
  go []

(* Parse then check: the complete pipeline. *)
let check_source src = Interp.check (parse_program src)
