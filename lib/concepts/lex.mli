(** The one lexer of the text front ends: the [.gpc] concept language
    ({!Lang}), STLlint programs ([Gp_stllint.Parser]) and Simplicissimus
    expressions ([Gp_simplicissimus.Sparser]).

    Every front end lexes identifiers ([[A-Za-z0-9_]+] not starting with
    a digit), decimal integers, blanks and newlines alike; its {!syntax}
    adds its punctuation and says whether it also has string literals,
    floats and [//] comments. A lexer holds the current token (one token
    of lookahead) and where it starts, and reports errors as {!Error}. *)

type token =
  | Id of string
  | Int of int
  | Float of float  (** a digit run holding a dot, when the syntax has floats *)
  | Str of string  (** a double-quoted literal: no escapes, may span lines *)
  | Punct of string
  | Eof

type syntax
(** A front end's lexical syntax: built once, shared by every parse. *)

val syntax :
  punct:string ->
  pairs:string list ->
  strings:bool ->
  floats:bool ->
  comments:bool ->
  syntax
(** [punct]: the one-character punctuation, each character a token;
    [pairs]: the two-character operators, matched before one-character
    punctuation. Any other character is an error. *)

type t = private {
  syntax : syntax;
  src : string;
  mutable pos : int;  (** the next unread byte *)
  mutable line : int;  (** 1-based *)
  mutable col : int;  (** 1-based, in bytes *)
  mutable start : int;  (** the first byte of [tok] *)
  mutable tok : token;  (** the current token *)
}

exception Error of { line : int; col : int; message : string }
(** Where the error lies: at the offending character or literal for a
    lexical error; at the start of the offending token (its first byte,
    or the end of the text at {!Eof}) for a grammar error raised through
    {!error} or {!error_at}. *)

val make : syntax -> string -> t
(** A lexer over the text, on its first token. *)

val shift : t -> unit
(** Move to the next token. *)

val peek : t -> token
(** The token after the current one, without moving. *)

val error : t -> ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Raise {!Error} at the start of the current token. *)

val error_at : t -> int -> ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Raise {!Error} at a byte of the text: the [start] of an earlier
    token, for an error found only once the parse has moved past it. *)

val accept : t -> string -> bool
(** Shift past the punctuation if it is the current token. *)

val expect : t -> string -> unit
(** Shift past the punctuation, or fail with ["expected '<p>'"]. *)

val accept_id : t -> string -> bool
(** Shift past the identifier if it is the current token. *)

val ident : t -> string
(** The current identifier, shifted past, or fail with ["expected an
    identifier"]. *)

val is_id_char : char -> bool

val to_eol : string -> int -> int
(** The index of the first newline at or after the position, or the
    length. *)
