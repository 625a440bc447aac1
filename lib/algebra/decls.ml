(* Runtime concept declarations for the algebraic hierarchy.

   Mirrors {!Sigs} into a gp_concepts registry so that checking, constraint
   propagation, overload resolution and the Simplicissimus rewrite guards
   can all reason about "(x, +) models Monoid" (Fig. 5).

   A model of an algebraic concept is a *(type, operation)* pair, not a bare
   type. In the registry's type language we represent the pair as a carrier
   type named "elem[op]", e.g. "int[+]"; its element type is recorded as the
   associated type [elem]. This keeps carriers first-class and lets two
   structures on the same element type (int with plus, int with times)
   coexist. *)

open Gp_concepts

let v t = Ctype.Var t
let n name = Ctype.Named name

let semigroup =
  Concept.make ~params:[ "T" ] "Semigroup"
    ~doc:"a set with an associative binary operation"
    [
      Concept.signature "op" [ v "T"; v "T" ] (v "T") ~doc:"the operation";
      Concept.axiom "associativity" ~vars:[ "a"; "b"; "c" ]
        "op(op(a,b),c) = op(a,op(b,c))";
    ]

let monoid =
  Concept.make ~params:[ "T" ] "Monoid"
    ~refines:[ ("Semigroup", [ v "T" ]) ]
    ~doc:"semigroup with a two-sided identity"
    [
      Concept.signature "id" [] (v "T") ~doc:"the identity element";
      Concept.axiom "left_identity" ~vars:[ "a" ] "op(id,a) = a";
      Concept.axiom "right_identity" ~vars:[ "a" ] "op(a,id) = a";
    ]

let group =
  Concept.make ~params:[ "T" ] "Group"
    ~refines:[ ("Monoid", [ v "T" ]) ]
    ~doc:"monoid with inverses"
    [
      Concept.signature "inverse" [ v "T" ] (v "T");
      Concept.axiom "left_inverse" ~vars:[ "a" ] "op(inverse(a),a) = id";
      Concept.axiom "right_inverse" ~vars:[ "a" ] "op(a,inverse(a)) = id";
    ]

let abelian_group =
  Concept.make ~params:[ "T" ] "AbelianGroup"
    ~refines:[ ("Group", [ v "T" ]) ]
    ~doc:"group with commutative operation"
    [ Concept.axiom "commutativity" ~vars:[ "a"; "b" ] "op(a,b) = op(b,a)" ]

let ring =
  Concept.make ~params:[ "T" ] "Ring"
    ~doc:"abelian group (add) + monoid (mul) with distributivity"
    [
      Concept.signature "add" [ v "T"; v "T" ] (v "T");
      Concept.signature "neg" [ v "T" ] (v "T");
      Concept.signature "zero" [] (v "T");
      Concept.signature "mul" [ v "T"; v "T" ] (v "T");
      Concept.signature "one" [] (v "T");
      Concept.axiom "left_distributivity" ~vars:[ "a"; "b"; "c" ]
        "mul(a,add(b,c)) = add(mul(a,b),mul(a,c))";
      Concept.axiom "right_distributivity" ~vars:[ "a"; "b"; "c" ]
        "mul(add(a,b),c) = add(mul(a,c),mul(b,c))";
    ]

let field =
  Concept.make ~params:[ "T" ] "Field"
    ~refines:[ ("Ring", [ v "T" ]) ]
    ~doc:"commutative ring with multiplicative inverses of nonzero elements"
    [
      Concept.signature "inv" [ v "T" ] (v "T");
      Concept.axiom "mul_commutativity" ~vars:[ "a"; "b" ]
        "mul(a,b) = mul(b,a)";
      Concept.axiom "mul_inverse" ~vars:[ "a" ]
        "a <> zero -> mul(a,inv(a)) = one";
    ]

(* Fig. 6: the Strict Weak Order concept and its axioms. *)
let strict_weak_order =
  Concept.make ~params:[ "T" ] "StrictWeakOrder"
    ~doc:
      "minimal requirements on < for correctness of search/sort algorithms \
       (Fig. 6)"
    [
      Concept.signature "lt" [ v "T"; v "T" ] (n "bool");
      Concept.axiom "irreflexivity" ~vars:[ "a" ] "not lt(a,a)";
      Concept.axiom "transitivity" ~vars:[ "a"; "b"; "c" ]
        "lt(a,b) and lt(b,c) -> lt(a,c)";
      Concept.axiom "equivalence_transitivity" ~vars:[ "a"; "b"; "c" ]
        "E(a,b) and E(b,c) -> E(a,c)  where E(x,y) := not lt(x,y) and not \
         lt(y,x)";
    ]

let all_concepts =
  [ semigroup; monoid; group; abelian_group; ring; field; strict_weak_order ]

(* The axioms a model of [name] asserts, each with the concept that
   states it: those of every concept it refines, root first, then its
   own. *)
let rec chain name =
  match
    List.find_opt (fun (c : Concept.t) -> String.equal c.name name)
      all_concepts
  with
  | None -> []
  | Some c ->
    List.concat_map (fun (r, _) -> chain r) c.refines
    @ List.map (fun ax -> (c, ax)) (Concept.axioms c)

let axioms_of_chain name =
  List.map (fun (_, (ax : Concept.axiom)) -> ax.ax_name) (chain name)

(* A literal of a standard element type: a carrier's identity, and the
   values Simplicissimus expressions carry. *)
type value =
  | VInt of int
  | VFloat of float
  | VBool of bool
  | VString of string
  | VRat of Rational.t
  | VMat of Instances.Qmat.t

type carrier = {
  c_elem : string;
  c_op : string;
  c_concept : string;
  c_identity : value option;
  c_inverse : string option;
  c_exact : bool;
}

let row ?identity ?inverse ?(exact = true) elem op concept =
  { c_elem = elem; c_op = op; c_concept = concept; c_identity = identity;
    c_inverse = inverse; c_exact = exact }

(* The Fig. 5 instances plus the honest exact ones, each declared once:
   the registry, the rewriter's surface table, the evaluator and the
   instance certifier all read this table. *)
let carriers =
  [
    row "int" "+" "AbelianGroup" ~identity:(VInt 0) ~inverse:"neg";
    row "int" "*" "Monoid" ~identity:(VInt 1);
    row "int" "&" "Monoid" ~identity:(VInt (-1));
    row "int" "|" "Monoid" ~identity:(VInt 0);
    row "bool" "&&" "Monoid" ~identity:(VBool true);
    row "bool" "||" "Monoid" ~identity:(VBool false);
    row "string" "^" "Monoid" ~identity:(VString "");
    (* floats: the axioms hold only approximately, asserted not proved *)
    row "float" "+" "AbelianGroup" ~identity:(VFloat 0.0) ~inverse:"neg"
      ~exact:false;
    row "float" "*" "Group" ~identity:(VFloat 1.0) ~inverse:"inv"
      ~exact:false;
    row "rational" "+" "AbelianGroup" ~identity:(VRat Rational.zero)
      ~inverse:"neg";
    row "rational" "*" "Group" ~identity:(VRat Rational.one) ~inverse:"inv";
    (* the matrix identity depends on the dimension: symbolic *)
    row "matrix" "." "Monoid";
    row "invertible_matrix" "." "Group" ~inverse:"inv";
  ]

type ring = { r_elem : string; r_add : string; r_mul : string }

(* Rings pair two carriers of [carriers] on one element type; the zero
   is the additive carrier's identity. *)
let rings =
  [ { r_elem = "int"; r_add = "+"; r_mul = "*" };
    { r_elem = "float"; r_add = "+"; r_mul = "*" };
    { r_elem = "rational"; r_add = "+"; r_mul = "*" } ]

(* Reflexive-transitive refinement among [all_concepts], read from their
   definitions. [declare] declares exactly these, so the registry would
   answer the same; asking it between declarations would rebuild its
   index each time. *)
let rec refines a b =
  String.equal a b
  || List.exists
       (fun (c : Concept.t) ->
         String.equal c.Concept.name a
         && List.exists (fun (r, _) -> refines r b) c.Concept.refines)
       all_concepts

let carrier_name ~elem ~op = elem ^ "[" ^ op ^ "]"

let declare_carrier reg ~elem ~op concept =
  let name = carrier_name ~elem ~op in
  Registry.declare_type reg name
    ~assoc:[ ("elem", n elem) ]
    ~doc:(Printf.sprintf "(%s) as a %s carrier" name concept);
  let t = n name in
  Registry.declare_op reg "op" [ t; t ] t;
  if refines concept "Monoid" then Registry.declare_op reg "id" [] t;
  if refines concept "Group" then Registry.declare_op reg "inverse" [ t ] t;
  (* models for the whole refinement chain, asserting axioms *)
  List.iter
    (fun cc ->
      if refines concept cc then
        Registry.declare_model reg cc [ t ] ~axioms:(axioms_of_chain cc)
          ~complexity:[ ("op", Complexity.constant) ])
    [ "Semigroup"; "Monoid"; "Group"; "AbelianGroup" ]

(* Declare the whole algebraic world into [reg]: concepts, element types,
   carrier types with their ops, and checked model declarations. *)
let declare reg =
  List.iter (Registry.declare_concept reg) all_concepts;
  let elems =
    List.fold_left
      (fun seen c -> if List.mem c.c_elem seen then seen else c.c_elem :: seen)
      [] carriers
  in
  List.iter (fun e -> Registry.declare_type reg e) (List.rev elems);
  List.iter
    (fun c -> declare_carrier reg ~elem:c.c_elem ~op:c.c_op c.c_concept)
    carriers;
  (* strict weak orders on ordered element types *)
  List.iter
    (fun e ->
      let t = n e in
      Registry.declare_op reg "lt" [ t; t ] (n "bool");
      Registry.declare_model reg "StrictWeakOrder" [ t ]
        ~axioms:(axioms_of_chain "StrictWeakOrder"))
    [ "int"; "string"; "rational" ]
