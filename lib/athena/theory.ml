(* Theories as first-class values parameterised by operator mappings.

   "We simulate type-parameterization simply by parameterizing functions
   and methods by functions that carry operator mappings." A theory is a
   function from a mapping (which concrete function symbols play the roles
   of op, e, inverse, <, ...) to a named axiom list. Instantiating the same
   theory for (int,+,0,-), (rational,*,1,inv) or (matrix,.,I,inverse) is
   just calling the function with a different mapping — the proof-level
   analogue of instantiating a generic algorithm. *)

open Logic

type mapping = {
  m_name : string; (* instance label, e.g. "int[+]" *)
  op : string; (* binary operation symbol *)
  e : string; (* identity constant symbol *)
  inv : string; (* inverse function symbol *)
}

let map_name m = m.m_name

(* term builders under a mapping *)
let ( %. ) m (a, b) = App (m.op, [ a; b ])
let e_of m = const m.e
let inv_of m t = App (m.inv, [ t ])

let a = Var "a"
let b = Var "b"
let c = Var "c"

type axiom = { ax_name : string; ax_prop : prop }

let axiom ax_name ax_prop = { ax_name; ax_prop }
let props axs = List.map (fun ax -> ax.ax_prop) axs
let find axs name =
  match List.find_opt (fun ax -> ax.ax_name = name) axs with
  | Some ax -> ax.ax_prop
  | None -> invalid_arg ("Theory.find: no axiom " ^ name)

(* ------------------------------------------------------------------ *)
(* Algebraic theories                                                  *)
(* ------------------------------------------------------------------ *)

let semigroup m =
  [
    axiom "associativity"
      (forall_many [ "a"; "b"; "c" ]
         (Eq (m %. (m %. (a, b), c), m %. (a, m %. (b, c)))));
  ]

let monoid m =
  semigroup m
  @ [
      axiom "left_identity" (Forall ("a", Eq (m %. (e_of m, a), a)));
      axiom "right_identity" (Forall ("a", Eq (m %. (a, e_of m), a)));
    ]

(* The *minimal* group presentation: associativity, left identity, left
   inverse. Right identity and right inverse are theorems — derived
   generically in {!Theorems}, which is how the checker certifies the
   Fig. 5 Group rewrite rule from first principles. *)
let group_minimal m =
  semigroup m
  @ [
      axiom "left_identity" (Forall ("a", Eq (m %. (e_of m, a), a)));
      axiom "left_inverse" (Forall ("a", Eq (m %. (inv_of m a, a), e_of m)));
    ]

let group m =
  group_minimal m
  @ [
      axiom "right_identity" (Forall ("a", Eq (m %. (a, e_of m), a)));
      axiom "right_inverse" (Forall ("a", Eq (m %. (a, inv_of m a), e_of m)));
    ]

let abelian_group m =
  group m
  @ [ axiom "commutativity" (forall_many [ "a"; "b" ] (Eq (m %. (a, b), m %. (b, a)))) ]

(* ------------------------------------------------------------------ *)
(* Order theories                                                      *)
(* ------------------------------------------------------------------ *)

(* Fig. 6: the Strict Weak Order axioms over a relation symbol [lt].
   E(x,y) := ~lt(x,y) /\ ~lt(y,x) is the induced equivalence. *)
let lt_atom lt x y = Atom (lt, [ x; y ])

let equiv lt x y = And (Not (lt_atom lt x y), Not (lt_atom lt y x))

let strict_weak_order ~lt =
  [
    axiom "irreflexivity" (Forall ("a", Not (lt_atom lt a a)));
    axiom "transitivity"
      (forall_many [ "a"; "b"; "c" ]
         (Implies (And (lt_atom lt a b, lt_atom lt b c), lt_atom lt a c)));
    axiom "equivalence_transitivity"
      (forall_many [ "a"; "b"; "c" ]
         (Implies (And (equiv lt a b, equiv lt b c), equiv lt a c)));
  ]

let partial_order ~leq =
  let le x y = Atom (leq, [ x; y ]) in
  [
    axiom "reflexivity" (Forall ("a", le a a));
    axiom "antisymmetry"
      (forall_many [ "a"; "b" ] (Implies (And (le a b, le b a), Eq (a, b))));
    axiom "transitivity"
      (forall_many [ "a"; "b"; "c" ]
         (Implies (And (le a b, le b c), le a c)));
  ]

let total_order ~leq =
  let le x y = Atom (leq, [ x; y ]) in
  partial_order ~leq
  @ [ axiom "totality" (forall_many [ "a"; "b" ] (Or (le a b, le b a))) ]

(* ------------------------------------------------------------------ *)
(* Two-operation theories                                              *)
(* ------------------------------------------------------------------ *)

type ring_mapping = { r_name : string; add : mapping; mul : mapping }

let ring rm =
  let dress prefix axs =
    List.map (fun ax -> { ax with ax_name = prefix ^ "_" ^ ax.ax_name }) axs
  in
  dress "add" (abelian_group rm.add)
  @ dress "mul" (monoid rm.mul)
  @ [
      axiom "left_distributivity"
        (forall_many [ "a"; "b"; "c" ]
           (Eq
              ( rm.mul %. (a, rm.add %. (b, c)),
                rm.add %. (rm.mul %. (a, b), rm.mul %. (a, c)) )));
      axiom "right_distributivity"
        (forall_many [ "a"; "b"; "c" ]
           (Eq
              ( rm.mul %. (rm.add %. (a, b), c),
                rm.add %. (rm.mul %. (a, c), rm.mul %. (b, c)) )));
    ]

(* ------------------------------------------------------------------ *)
(* Standard instance mappings (the Fig. 5 instances)                   *)
(* ------------------------------------------------------------------ *)

let int_add = { m_name = "int[+]"; op = "int_add"; e = "int_zero"; inv = "int_neg" }
let int_mul = { m_name = "int[*]"; op = "int_mul"; e = "int_one"; inv = "_no_inverse" }
let bool_and = { m_name = "bool[&&]"; op = "bool_and"; e = "bool_true"; inv = "_no_inverse" }
let int_band = { m_name = "int[&]"; op = "int_band"; e = "int_allbits"; inv = "_no_inverse" }
let string_concat = { m_name = "string[^]"; op = "str_concat"; e = "str_empty"; inv = "_no_inverse" }
let float_mul = { m_name = "float[*]"; op = "float_mul"; e = "float_one"; inv = "float_inv" }
let rational_mul = { m_name = "rational[*]"; op = "rat_mul"; e = "rat_one"; inv = "rat_inv" }
let matrix_mul = { m_name = "matrix[.]"; op = "mat_mul"; e = "mat_identity"; inv = "mat_inverse" }
let int_ring = { r_name = "int"; add = int_add; mul = int_mul }

let monoid_instances = [ int_mul; float_mul; bool_and; int_band; string_concat; matrix_mul ]
let group_instances = [ int_add; float_mul; rational_mul; matrix_mul ]
