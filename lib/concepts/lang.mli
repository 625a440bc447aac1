(** A cohesive surface syntax for concepts — the paper's future-work
    item ("unifying the notions of syntactic, semantic, and performance
    requirements on concepts into a single, cohesive syntax"), made
    concrete as a small declaration language:

    {[
      concept Monoid<T> refines Semigroup<T> {
        id : -> T;
        axiom left_identity(a): "op(id,a) = a";
        complexity op O(1);
      }

      type "int[+]" { elem = int; }
      op op : "int[+]", "int[+]" -> "int[+]";
      model Monoid<"int[+]"> asserting associativity, left_identity;
    ]}

    Type names containing special characters are double-quoted.
    Comments run from [//] to end of line. *)

exception Parse_error of { line : int; col : int; message : string }
(** {!Lex.Error} under this front end's name. *)

type item =
  | Iconcept of Concept.t
  | Itype of { name : string; assoc : (string * Ctype.t) list }
  | Iop of { name : string; params : Ctype.t list; ret : Ctype.t }
  | Imodel of { concept : string; args : Ctype.t list; axioms : string list }

val parse_string : string -> item list
(** Raises {!Parse_error} with position information. *)

val load_items : Registry.t -> item list -> unit
val load_string : Registry.t -> string -> unit
(** Parse and declare everything into the registry. *)

(** {2 Printing}

    [to_source] renders a concept in the surface syntax; parser-authored
    concepts round-trip ([parse_string (to_source c)] re-reads [c]). *)

val pp_ty : Format.formatter -> Ctype.t -> unit
val pp_concept : Format.formatter -> Concept.t -> unit
val to_source : Concept.t -> string
