(** A surface syntax for the expression IR ([gp optimize --expr ...]).

    Standard precedence (multiplicative over additive), parentheses,
    int/float/bool/string literals, variables with optional type
    annotations ([f:float]; default int), unary applications
    ([neg(x)], [inv(x)], [Inverse(f)]). Binary [-] desugars to
    [x + neg(y)], the IR's inverse form. *)

exception Parse_error of { line : int; col : int; message : string }
(** [Gp_concepts.Lex.Error] under this front end's name. *)

val parse : string -> Expr.t
(** Raises {!Parse_error} on malformed input, including carrier-type
    mismatches between operands. A malformed token (an unexpected
    character, an out-of-range integer, a malformed float, an
    unterminated string) is reported in preference to a grammar error
    earlier in the text. *)
