(* The Fig. 3 Vector Space concept: a genuinely multi-type concept.

   "Types V and S model the Vector Space concept if, in addition to the
   type S modeling the Field concept and the type V modeling the Additive
   Abelian Group concept, the requirements [mult(v,s) : V, mult(s,v) : V]
   are satisfied."

   Crucially, S is a concept *parameter*, not an associated type of V: the
   same complex-vector type V models VectorSpace with S = complex AND with
   S = real (the CLACRM situation). Both models are declared below, which a
   single-parameter, associated-type formulation cannot express. *)

open Gp_concepts

let v t = Ctype.Var t
let n name = Ctype.Named name

let vector_space =
  Concept.make ~params:[ "V"; "S" ] "VectorSpace" ~doc:"Fig. 3"
    ~refines:
      [ ("AbelianGroup", [ v "V" ]); ("Field", [ v "S" ]) ]
    [
      Concept.signature "mult" [ v "V"; v "S" ] (v "V");
      Concept.signature "mult" [ v "S"; v "V" ] (v "V");
      Concept.axiom "scalar_assoc" ~vars:[ "a"; "b"; "x" ]
        "mult(mult(x,a),b) = mult(x, a*b)";
      Concept.axiom "scalar_distrib" ~vars:[ "a"; "x"; "y" ]
        "mult(x+y, a) = mult(x,a) + mult(y,a)";
      Concept.axiom "vector_distrib" ~vars:[ "a"; "b"; "x" ]
        "mult(x, a+b) = mult(x,a) + mult(x,b)";
      Concept.axiom "unit_scalar" ~vars:[ "x" ] "mult(x, one) = x";
    ]

(* The flawed single-type alternative the paper warns against: scalar as an
   associated type. Declared so the experiments can show what it cannot
   express (two scalar structures on one vector type). *)
let vector_space_assoc =
  Concept.make ~params:[ "V" ] "VectorSpaceAssocScalar"
    ~refines:[ ("AbelianGroup", [ v "V" ]) ]
    ~doc:"anti-pattern: scalar as associated type (Section 2.4)"
    [
      Concept.assoc_type "scalar"
        ~constraints:[ Concept.Models ("Field", [ Ctype.Assoc (v "V", "scalar") ]) ];
      Concept.signature "mult" [ v "V"; Ctype.Assoc (v "V", "scalar") ] (v "V");
    ]

(* Declare the linear-algebra world into [reg]. Requires the algebraic
   concepts (Gp_algebra.Decls.declare) to be present already. *)
let declare reg =
  Registry.declare_concept reg vector_space;
  Registry.declare_concept reg vector_space_assoc;
  (* element types: carriers for the vector (abelian group under +) and the
     two scalar fields *)
  List.iter
    (fun name ->
      if not (Registry.has_type reg name) then Registry.declare_type reg name)
    [ "cvec"; "complex"; "real" ];
  (* cvec is an additive abelian group *)
  Registry.declare_op reg "op" [ n "cvec"; n "cvec" ] (n "cvec");
  Registry.declare_op reg "id" [] (n "cvec");
  Registry.declare_op reg "inverse" [ n "cvec" ] (n "cvec");
  List.iter
    (fun c ->
      Registry.declare_model reg c [ n "cvec" ]
        ~axioms:(Gp_algebra.Decls.axioms_of_chain c))
    [ "Semigroup"; "Monoid"; "Group"; "AbelianGroup" ];
  (* complex and real are fields *)
  List.iter
    (fun s ->
      Registry.declare_op reg "add" [ n s; n s ] (n s);
      Registry.declare_op reg "neg" [ n s ] (n s);
      Registry.declare_op reg "zero" [] (n s);
      Registry.declare_op reg "mul" [ n s; n s ] (n s);
      Registry.declare_op reg "one" [] (n s);
      Registry.declare_op reg "inv" [ n s ] (n s);
      Registry.declare_model reg "Ring" [ n s ]
        ~axioms:[ "left_distributivity"; "right_distributivity" ];
      Registry.declare_model reg "Field" [ n s ]
        ~axioms:[ "mul_commutativity"; "mul_inverse" ])
    [ "complex"; "real" ];
  (* the two scalar multiplications on cvec *)
  List.iter
    (fun s ->
      Registry.declare_op reg "mult" [ n "cvec"; n s ] (n "cvec");
      Registry.declare_op reg "mult" [ n s; n "cvec" ] (n "cvec"))
    [ "complex"; "real" ];
  (* BOTH models: (cvec, complex) and (cvec, real) — impossible with the
     associated-type formulation *)
  let vs_axioms =
    [ "scalar_assoc"; "scalar_distrib"; "vector_distrib"; "unit_scalar" ]
  in
  Registry.declare_model reg "VectorSpace" [ n "cvec"; n "complex" ]
    ~axioms:vs_axioms;
  Registry.declare_model reg "VectorSpace" [ n "cvec"; n "real" ]
    ~axioms:vs_axioms
