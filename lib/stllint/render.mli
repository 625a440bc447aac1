(** Render a checked-language AST back to the {!Parser} surface syntax;
    parsing the result reproduces the program structurally (labels
    aside). *)

val to_source : Ast.stmt list -> string

val block_equal : Ast.stmt list -> Ast.stmt list -> bool
