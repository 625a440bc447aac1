(** The C++-flavoured surface syntax for the checked language, making
    STLlint a file-level tool ([gp lint --file prog.cxx]).

    {v
      vector<student> students;
      iter it = students.begin();
      while (it != last) {
        if (fgrade( *it )) { students.erase(it); } else { ++it; }
      }
    v}

    Container declarations ([vector]/[list]/[deque]/[istream], optional
    [sorted] annotation), iterator bindings ([iter x = c.begin()],
    reassignment, [c.erase(it)] results), member calls, algorithm calls
    with contextually-typed arguments (container range, [i..j] iterator
    range, value, predicate), [while]/[if] with iterator conditions, and
    [// comments]. Diagnostics carry the first source line of the
    offending statement as their location. *)

exception Parse_error of { line : int; col : int; message : string }
(** [Gp_concepts.Lex.Error] under this front end's name. *)

val parse_program : string -> Ast.stmt list
(** Raises {!Parse_error} with the line and column. *)

val check_source : string -> Interp.diagnostic list
(** Parse and check: the complete pipeline. *)
