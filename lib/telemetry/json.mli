(** The one JSON module: value type, parser, printer, the emission
    helpers the exporters write with, the typed field readers every
    loader reads with, and the cursor lexer the request decoder
    ([Gp_service.Wire]) scans lines with.

    A hand-rolled subset: objects (a repeated key is rejected), arrays,
    strings with escapes ([\uXXXX] for the BMP), integers, floats,
    booleans, null. Syntax errors are positioned: ["at <pos>: ..."]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list  (** members in input order *)

exception Error of string
(** A syntax error from {!parse} or the lexer, or a reader's field
    error. *)

val fail : ('a, unit, string, 'b) format4 -> 'a
(** Raise {!Error} with a formatted message. *)

(** {2 JSONL documents} *)

val lines : string -> (int * string) list
(** The non-blank lines of a document, each with its 1-based line
    number, blank lines counted. *)

val on_line : int * string -> (string -> 'a) -> 'a
(** [on_line (n, line) read] is [read line], with an {!Error} it raises
    re-raised as ["line <n>: <message>"]. *)

val parse : string -> t
(** Exactly one value, with optional surrounding whitespace. A number
    that fits an [int] is an [Int], any other a [Float]. A trailing comma
    in an object or array ([{"a":1,}], [[1,]]) is an error. *)

val to_string : t -> string
(** One line, no whitespace. [parse (to_string v) = v] holds for values
    without [Float]: floats print with [%g] (six significant digits, an
    integral one reloads as [Int]) and [nan]/[inf] as [nan]/[inf], which
    {!parse} rejects. *)

(** {2 Emission} *)

val escape_into : Buffer.t -> string -> unit
(** Append a string literal's contents (no quotes), allocation-free:
    quote, backslash, newline, tab and carriage return get two-character
    escapes, other control characters [\u00xx]. *)

val str : string -> string
(** A quoted, escaped string literal. *)

val add_int : Buffer.t -> int -> unit
(** Append a decimal int ([min_int] included) without a string. *)

val num : float -> string
(** Six significant digits ([%.6g]), written as an integer when they are
    integral and below [1e15] (negative zero as [0]); [nan] and the
    infinities as [null]. [num] of what {!num_field} reads back is the
    same string. *)

(** {2 Typed field readers}

    Each reads member [name] of an object and raises
    [Error "field <name>: expected <type>"] when it is absent or of
    another type. *)

val field : string -> t -> t option
(** The member, if the value is an object that has it. *)

val str_field : string -> t -> string
val int_field : string -> t -> int
val bool_field : string -> t -> bool

val num_field : string -> t -> float
(** An [Int] or a [Float]; [Null] reads as [nan], as {!num} writes it. *)

val list_field : string -> t -> t list
val obj_field : string -> t -> (string * t) list

val opt_field : (string -> t -> 'a) -> string -> t -> 'a option
(** [None] when the member is absent, else [Some (read name o)]. *)

(** {2 Cursor lexer}

    The request decoder scans a line in place and hands what it does
    not decode itself to these, at the position it reached, so both
    share every accept, reject and message. *)

type cursor = { mutable src : string; mutable pos : int }

val skip_ws : cursor -> unit

val string_body : cursor -> string
(** From just past an opening quote to just past the closing one; an
    escape-free string is one [String.sub]. *)

val number : cursor -> t
val value : cursor -> t
