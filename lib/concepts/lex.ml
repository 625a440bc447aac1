(* One lexer for the text front ends: the .gpc concept language
   ([Lang]), STLlint programs ([Gp_stllint.Parser]) and Simplicissimus
   expressions ([Gp_simplicissimus.Sparser]). A front end differs from
   the others only in its [syntax], a value it builds once.

   The lexer scans [src] in place: [pos] is the next unread byte,
   [start] the first byte of the current token [tok]. An identifier,
   number or string is one [String.sub]; punctuation tokens are shared.
   [col] counts bytes, a newline resetting it to 1. A lexical error is
   raised where the scan stands, at the offending character or literal;
   a grammar error at [start]. *)

type token =
  | Id of string
  | Int of int
  | Float of float
  | Str of string
  | Punct of string
  | Eof

type syntax = {
  punct : token array; (* by character; [Eof] for none *)
  pairs : (char * token) list array; (* by first character *)
  strings : bool;
  floats : bool;
  comments : bool;
}

let syntax ~punct ~pairs ~strings ~floats ~comments =
  let one =
    Array.init 256 (fun code ->
        let c = Char.chr code in
        if String.contains punct c then Punct (String.make 1 c) else Eof)
  in
  let two = Array.make 256 [] in
  List.iter
    (fun p ->
      let c = Char.code p.[0] in
      two.(c) <- (p.[1], Punct p) :: two.(c))
    pairs;
  { punct = one; pairs = two; strings; floats; comments }

type t = {
  syntax : syntax;
  src : string;
  mutable pos : int;
  mutable line : int;
  mutable col : int;
  mutable start : int;
  mutable tok : token;
}

exception Error of { line : int; col : int; message : string }

let raise_at line col fmt =
  Fmt.kstr (fun message -> raise (Error { line; col; message })) fmt

let lex_error lx fmt = raise_at lx.line lx.col fmt

(* The line and column of byte [i], counted from the text on error
   only, so scanning keeps no per-token position. *)
let error_at lx i fmt =
  let line = ref 1 and bol = ref 0 in
  for k = 0 to i - 1 do
    if lx.src.[k] = '\n' then begin
      incr line;
      bol := k + 1
    end
  done;
  raise_at !line (i - !bol + 1) fmt

let error lx fmt = error_at lx lx.start fmt

let is_digit c = c >= '0' && c <= '9'

let is_id_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || is_digit c || c = '_'

let is_number_char c = is_digit c || c = '.'

let rec to_eol src i =
  if i < String.length src && src.[i] <> '\n' then to_eol src (i + 1) else i

let rec scan_end p src i =
  if i < String.length src && p src.[i] then scan_end p src (i + 1) else i

(* Advance over [len] bytes that hold no newline. *)
let skip lx len =
  lx.pos <- lx.pos + len;
  lx.col <- lx.col + len

let take lx len tok =
  skip lx len;
  tok

(* Blanks and, if the syntax has them, [// ...] comments; a comment
   stops in front of its newline. *)
let rec skip_ws lx =
  let src = lx.src and i = lx.pos in
  if i < String.length src then
    match src.[i] with
    | '\n' ->
      lx.pos <- i + 1;
      lx.line <- lx.line + 1;
      lx.col <- 1;
      skip_ws lx
    | ' ' | '\t' | '\r' ->
      skip lx 1;
      skip_ws lx
    | '/'
      when lx.syntax.comments
           && i + 1 < String.length src
           && src.[i + 1] = '/' ->
      skip lx (to_eol src i - i);
      skip_ws lx
    | _ -> ()

(* A string literal opening at [i]: no escapes, its body may span
   lines. *)
let string_literal lx i =
  let src = lx.src in
  let j =
    Option.value ~default:(String.length src)
      (String.index_from_opt src (i + 1) '"')
  in
  for k = i to j - 1 do
    if src.[k] = '\n' then begin
      lx.line <- lx.line + 1;
      lx.col <- 1
    end
    else lx.col <- lx.col + 1
  done;
  lx.pos <- j;
  if j = String.length src then lex_error lx "unterminated string literal";
  take lx 1 (Str (String.sub src (i + 1) (j - i - 1)))

(* A digit run; with floats, dots too, and a run holding a dot is a
   float. *)
let number lx i =
  let src = lx.src and floats = lx.syntax.floats in
  let j = scan_end (if floats then is_number_char else is_digit) src i in
  let text = String.sub src i (j - i) in
  if floats && String.contains text '.' then
    match float_of_string_opt text with
    | Some f -> take lx (j - i) (Float f)
    | None -> lex_error lx "malformed number %s" text
  else
    match int_of_string_opt text with
    | Some k -> take lx (j - i) (Int k)
    | None -> lex_error lx "integer literal %s is out of range" text

let rec pair c2 = function
  | [] -> Eof
  | (c, tok) :: rest -> if c = c2 then tok else pair c2 rest

let next lx =
  skip_ws lx;
  let src = lx.src and i = lx.pos in
  lx.start <- i;
  if i >= String.length src then Eof
  else
    match src.[i] with
    | '"' when lx.syntax.strings -> string_literal lx i
    | '0' .. '9' -> number lx i
    | c when is_id_char c ->
      let j = scan_end is_id_char src i in
      take lx (j - i) (Id (String.sub src i (j - i)))
    | c -> (
      let two =
        if i + 1 < String.length src then
          pair src.[i + 1] lx.syntax.pairs.(Char.code c)
        else Eof
      in
      match two with
      | Eof -> (
        match lx.syntax.punct.(Char.code c) with
        | Eof -> lex_error lx "unexpected character %c" c
        | tok -> take lx 1 tok)
      | tok -> take lx 2 tok)

let shift lx = lx.tok <- next lx

let make syntax src =
  let lx = { syntax; src; pos = 0; line = 1; col = 1; start = 0; tok = Eof } in
  shift lx;
  lx

let peek lx =
  let pos = lx.pos and line = lx.line and col = lx.col and start = lx.start in
  let tok = next lx in
  lx.pos <- pos;
  lx.line <- line;
  lx.col <- col;
  lx.start <- start;
  tok

let accept lx p =
  match lx.tok with
  | Punct q when String.equal q p ->
    shift lx;
    true
  | _ -> false

let expect lx p = if not (accept lx p) then error lx "expected '%s'" p

let accept_id lx word =
  match lx.tok with
  | Id x when String.equal x word ->
    shift lx;
    true
  | _ -> false

let ident lx =
  match lx.tok with
  | Id x ->
    shift lx;
    x
  | _ -> error lx "expected an identifier"
