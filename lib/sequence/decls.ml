(* Concept declarations for the iterator/container world.

   Declares the STL iterator-concept refinement chain with its semantic
   axioms (including the Forward Iterator "multipass" requirement that
   STLlint checks, Section 3.1) and complexity guarantees, plus the
   Container/Sequence concepts, and registers the three containers as
   models. Also builds the concept-dispatched [sort] as an {!Overload}
   generic, which experiment C1 exercises. *)

open Gp_concepts

let v t = Ctype.Var t
let n name = Ctype.Named name

let input_iterator =
  Concept.make ~params:[ "I" ] "InputIterator"
    ~doc:"single-pass read-only traversal"
    [
      Concept.assoc_type "value_type";
      Concept.signature "deref" [ v "I" ] (Ctype.Assoc (v "I", "value_type"));
      Concept.signature "succ" [ v "I" ] (v "I");
      Concept.signature "iter_eq" [ v "I"; v "I" ] (n "bool");
      Concept.axiom "single_pass" ~vars:[ "i" ]
        "after succ(i) is evaluated, copies of i are not dereferenceable";
      Concept.complexity "deref" Complexity.constant;
      Concept.complexity "succ" Complexity.constant;
    ]

let output_iterator =
  Concept.make ~params:[ "I" ] "OutputIterator"
    ~doc:"single-pass write-only traversal"
    [
      Concept.assoc_type "value_type";
      Concept.signature "assign"
        [ v "I"; Ctype.Assoc (v "I", "value_type") ]
        (n "unit");
      Concept.signature "succ" [ v "I" ] (v "I");
      Concept.complexity "assign" Complexity.constant;
    ]

let forward_iterator =
  Concept.make ~params:[ "I" ] "ForwardIterator"
    ~refines:[ ("InputIterator", [ v "I" ]) ]
    ~doc:"multipass traversal: copies remain valid"
    [
      Concept.axiom "multipass" ~vars:[ "i"; "j" ]
        "i = j implies deref(i) = deref(j), and copies may be traversed \
         independently";
    ]

let bidirectional_iterator =
  Concept.make ~params:[ "I" ] "BidirectionalIterator"
    ~refines:[ ("ForwardIterator", [ v "I" ]) ]
    [
      Concept.signature "pred" [ v "I" ] (v "I");
      Concept.axiom "pred_succ_inverse" ~vars:[ "i" ]
        "pred(succ(i)) = i when succ(i) is valid";
      Concept.complexity "pred" Complexity.constant;
    ]

let random_access_iterator =
  Concept.make ~params:[ "I" ] "RandomAccessIterator"
    ~refines:[ ("BidirectionalIterator", [ v "I" ]) ]
    [
      Concept.signature "jump" [ v "I"; n "int" ] (v "I");
      Concept.signature "difference" [ v "I"; v "I" ] (n "int");
      Concept.axiom "jump_consistent" ~vars:[ "i"; "k" ]
        "jump(i,k) = succ^k(i) for k >= 0";
      Concept.complexity "jump" Complexity.constant;
      Concept.complexity "difference" Complexity.constant;
    ]

let container =
  Concept.make ~params:[ "C" ] "Container"
    ~doc:"finite collection with iterator access"
    [
      Concept.assoc_type "value_type";
      Concept.assoc_type "iterator"
        ~constraints:
          [
            Concept.Models
              ("InputIterator", [ Ctype.Assoc (v "C", "iterator") ]);
            Concept.Same_type
              ( Ctype.Assoc (Ctype.Assoc (v "C", "iterator"), "value_type"),
                Ctype.Assoc (v "C", "value_type") );
          ];
      Concept.signature "begin" [ v "C" ] (Ctype.Assoc (v "C", "iterator"));
      Concept.signature "end" [ v "C" ] (Ctype.Assoc (v "C", "iterator"));
      Concept.signature "size" [ v "C" ] (n "int");
      Concept.complexity "size" Complexity.constant;
    ]

let sequence =
  Concept.make ~params:[ "C" ] "Sequence"
    ~refines:[ ("Container", [ v "C" ]) ]
    [
      Concept.signature "push_back"
        [ v "C"; Ctype.Assoc (v "C", "value_type") ]
        (n "unit");
      Concept.complexity ~amortized:true "push_back" Complexity.constant;
    ]

let front_insertion_sequence =
  Concept.make ~params:[ "C" ] "FrontInsertionSequence"
    ~refines:[ ("Sequence", [ v "C" ]) ]
    [
      Concept.signature "push_front"
        [ v "C"; Ctype.Assoc (v "C", "value_type") ]
        (n "unit");
      Concept.complexity "push_front" Complexity.constant;
    ]

let random_access_container =
  Concept.make ~params:[ "C" ] "RandomAccessContainer"
    ~refines:[ ("Container", [ v "C" ]) ]
    [
      Concept.Constraint
        (Concept.Models
           ("RandomAccessIterator", [ Ctype.Assoc (v "C", "iterator") ]));
      Concept.signature "nth" [ v "C"; n "int" ]
        (Ctype.Assoc (v "C", "value_type"));
      Concept.complexity "nth" Complexity.constant;
    ]

let all_concepts =
  [
    input_iterator; output_iterator; forward_iterator; bidirectional_iterator;
    random_access_iterator; container; sequence; front_insertion_sequence;
    random_access_container;
  ]

(* Declare an iterator type of the given category over element type [elem],
   with all operations its category's concepts require. *)
let declare_iterator_type reg ~name ~elem ~category =
  Registry.declare_type reg name ~assoc:[ ("value_type", n elem) ];
  let t = n name in
  Registry.declare_op reg "deref" [ t ] (n elem);
  Registry.declare_op reg "succ" [ t ] t;
  Registry.declare_op reg "iter_eq" [ t; t ] (n "bool");
  Registry.declare_op reg "assign" [ t; n elem ] (n "unit");
  if Iter.rank category >= Iter.rank Iter.Bidirectional then
    Registry.declare_op reg "pred" [ t ] t;
  if category = Iter.Random_access then begin
    Registry.declare_op reg "jump" [ t; n "int" ] t;
    Registry.declare_op reg "difference" [ t; t ] (n "int")
  end;
  let complexity =
    [ ("deref", Complexity.constant); ("succ", Complexity.constant);
      ("pred", Complexity.constant); ("jump", Complexity.constant);
      ("difference", Complexity.constant); ("assign", Complexity.constant) ]
  in
  let chain =
    match category with
    | Iter.Input -> [ "InputIterator" ]
    | Iter.Output -> [ "OutputIterator" ]
    | Iter.Forward -> [ "InputIterator"; "ForwardIterator" ]
    | Iter.Bidirectional ->
      [ "InputIterator"; "ForwardIterator"; "BidirectionalIterator" ]
    | Iter.Random_access ->
      [ "InputIterator"; "ForwardIterator"; "BidirectionalIterator";
        "RandomAccessIterator" ]
  in
  let axioms_for = function
    | "InputIterator" -> [ "single_pass" ]
    | "ForwardIterator" -> [ "multipass" ]
    | "BidirectionalIterator" -> [ "pred_succ_inverse" ]
    | "RandomAccessIterator" -> [ "jump_consistent" ]
    | _ -> []
  in
  List.iter
    (fun c ->
      Registry.declare_model reg c [ t ] ~axioms:(axioms_for c) ~complexity)
    chain

(* Declare a container type and its model facts. *)
let declare_container_type reg ~name ~elem ~iterator ~concepts
    ~push_back_amortized =
  Registry.declare_type reg name
    ~assoc:[ ("value_type", n elem); ("iterator", n iterator) ];
  let t = n name in
  Registry.declare_op reg "begin" [ t ] (n iterator);
  Registry.declare_op reg "end" [ t ] (n iterator);
  Registry.declare_op reg "size" [ t ] (n "int");
  Registry.declare_op reg "push_back" [ t; n elem ] (n "unit");
  if List.mem "FrontInsertionSequence" concepts then
    Registry.declare_op reg "push_front" [ t; n elem ] (n "unit");
  if List.mem "RandomAccessContainer" concepts then
    Registry.declare_op reg "nth" [ t; n "int" ] (n elem);
  let complexity =
    [ ("size", Complexity.constant);
      ( "push_back",
        if push_back_amortized then Complexity.constant
        else Complexity.linear "n" );
      ("push_front", Complexity.constant); ("nth", Complexity.constant) ]
  in
  List.iter
    (fun c -> Registry.declare_model reg c [ t ] ~complexity)
    concepts

(* Populate a registry with the whole sequence world over int elements. *)
let declare reg =
  List.iter (Registry.declare_concept reg) all_concepts;
  if not (Registry.has_type reg "int") then Registry.declare_type reg "int";
  declare_iterator_type reg ~name:"vector<int>::iterator" ~elem:"int"
    ~category:Iter.Random_access;
  declare_iterator_type reg ~name:"list<int>::iterator" ~elem:"int"
    ~category:Iter.Bidirectional;
  declare_iterator_type reg ~name:"deque<int>::iterator" ~elem:"int"
    ~category:Iter.Random_access;
  declare_iterator_type reg ~name:"istream<int>::iterator" ~elem:"int"
    ~category:Iter.Input;
  declare_container_type reg ~name:"vector<int>" ~elem:"int"
    ~iterator:"vector<int>::iterator"
    ~concepts:[ "Container"; "Sequence"; "RandomAccessContainer" ]
    ~push_back_amortized:true;
  declare_container_type reg ~name:"list<int>" ~elem:"int"
    ~iterator:"list<int>::iterator"
    ~concepts:[ "Container"; "Sequence"; "FrontInsertionSequence" ]
    ~push_back_amortized:true;
  declare_container_type reg ~name:"deque<int>" ~elem:"int"
    ~iterator:"deque<int>::iterator"
    ~concepts:
      [ "Container"; "Sequence"; "FrontInsertionSequence";
        "RandomAccessContainer" ]
    ~push_back_amortized:true

(* ------------------------------------------------------------------ *)
(* Concept-dispatched sort as an Overload generic                      *)
(* ------------------------------------------------------------------ *)

type Overload.dyn += Int_range of int Iter.t * int Iter.t

(* Build the [sort] generic: one candidate per iterator concept; resolution
   picks the most refined concept the argument's iterator type models. *)
let sort_generic () =
  let g = Overload.create "sort" in
  Overload.add_candidate g ~name:"mergesort (forward)"
    ~guard:"ForwardIterator" (fun args ->
      match args with
      | [ Int_range (first, last) ] ->
        Algorithms.forward_sort ~lt:( < ) (first, last);
        Overload.Unit
      | _ -> invalid_arg "sort: expected a range argument");
  Overload.add_candidate g ~name:"introsort (random access)"
    ~guard:"RandomAccessIterator" (fun args ->
      match args with
      | [ Int_range (first, last) ] ->
        let n = Algorithms.distance first last in
        if n > 1 then Algorithms.Introsort.sort ~lt:( < ) first n;
        Overload.Unit
      | _ -> invalid_arg "sort: expected a range argument");
  g
