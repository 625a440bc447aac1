(* Theories as first-class values parameterised by operator mappings.

   "We simulate type-parameterization simply by parameterizing functions
   and methods by functions that carry operator mappings." A theory is a
   function from a mapping (which concrete function symbols play the roles
   of op, e, inverse, <, ...) to a named axiom list. Instantiating the same
   theory for (int,+,0,-), (rational,*,1,inv) or (matrix,.,I,inverse) is
   just calling the function with a different mapping — the proof-level
   analogue of instantiating a generic algorithm.

   The algebraic and order axioms are [Gp_algebra.Decls]' statements,
   parsed once per process into propositions over the concept's symbols
   (op, id, inverse, lt, add, ...), which a theory renames. *)

open Logic
module Lex = Gp_concepts.Lex
module Concept = Gp_concepts.Concept
module Decls = Gp_algebra.Decls

type mapping = {
  m_name : string; (* instance label, e.g. "int[+]" *)
  op : string; (* binary operation symbol *)
  e : string; (* identity constant symbol *)
  inv : string; (* inverse function symbol *)
}

(* term builders under a mapping *)
let ( %. ) m (a, b) = App (m.op, [ a; b ])
let e_of m = const m.e
let inv_of m t = App (m.inv, [ t ])

type axiom = { ax_name : string; ax_prop : prop }

let props axs = List.map (fun ax -> ax.ax_prop) axs
let find axs name =
  match List.find_opt (fun ax -> ax.ax_name = name) axs with
  | Some ax -> ax.ax_prop
  | None -> invalid_arg ("Theory.find: no axiom " ^ name)

(* ------------------------------------------------------------------ *)
(* Axiom statements                                                    *)
(* ------------------------------------------------------------------ *)

(* [p] with the symbol [f] of every application renamed [sym f] and
   every atom [r(ts)] replaced by [atom r ts]: a theory's renaming, and
   the expansion of a statement's macro. Variables are shared. *)
let rec map_prop sym atom p =
  match p with
  | True | False | Iff _ | Exists _ -> p (* never parsed *)
  | Atom (r, ts) -> atom r (map_terms sym ts)
  | Eq (x, y) -> Eq (map_term sym x, map_term sym y)
  | Not q -> Not (map_prop sym atom q)
  | And (q, r) -> And (map_prop sym atom q, map_prop sym atom r)
  | Or (q, r) -> Or (map_prop sym atom q, map_prop sym atom r)
  | Implies (q, r) -> Implies (map_prop sym atom q, map_prop sym atom r)
  | Forall (x, q) -> Forall (x, map_prop sym atom q)

and map_term sym t =
  match t with
  | Var _ -> t
  | App (f, ts) -> App (sym f, map_terms sym ts)

and map_terms sym = function
  | [] -> []
  | t :: ts -> map_term sym t :: map_terms sym ts

let syntax =
  Lex.syntax ~punct:"(),=" ~pairs:[ "<>"; "->"; ":=" ] ~strings:false
    ~floats:false ~comments:false

(* The grammar of theory.mli, by recursive descent. A variable is its
   binder's string, so the checker compares the two by one pointer test.
   An application in a proposition's place that no [bool] operation
   names is a use of the [where] macro, which follows the body (and
   none is in it): [uses] keeps each one's symbol, arity, start and the
   offset after it. *)
let rec term s vars =
  let at = s.Lex.start in
  let f = Lex.ident s in
  match List.find_opt (String.equal f) vars with
  | None -> App (f, if Lex.accept s "(" then args s vars else [])
  | Some x when s.tok = Punct "(" ->
    Lex.error_at s at "the variable %s is applied" x
  | Some x -> Var x

and args s vars =
  let t = term s vars in
  if Lex.accept s "," then t :: args s vars else (Lex.expect s ")"; [ t ])

let rec imp s cx vars =
  let p = disj s cx vars (conj s cx vars (unary s cx vars)) in
  if Lex.accept s "->" then Implies (p, imp s cx vars) else p

and disj s cx vars p =
  if Lex.accept_id s "or" then
    disj s cx vars (Or (p, conj s cx vars (unary s cx vars)))
  else p

and conj s cx vars p =
  if Lex.accept_id s "and" then conj s cx vars (And (p, unary s cx vars)) else p

and unary s ((relations, uses) as cx) vars =
  if Lex.accept_id s "not" then Not (unary s cx vars)
  else
    let at = s.start in
    match (term s vars, uses) with
    | App (r, ts), _ when List.mem r relations -> Atom (r, ts)
    | x, _ when Lex.accept s "=" -> Eq (x, term s vars)
    | x, _ when Lex.accept s "<>" -> Not (Eq (x, term s vars))
    | App (f, ts), Some uses ->
      uses := (f, List.length ts, at, s.start) :: !uses;
      Atom (f, ts)
    | _ -> Lex.error s "expected '=' or '<>'"

let of_statement (c : Concept.t) (ax : Concept.axiom) =
  let relations =
    List.filter_map (fun (o : Concept.signature) ->
        if o.op_return = Named "bool" then Some o.op_name else None)
      (Concept.operations c)
  in
  let s = Lex.make syntax ax.ax_statement and uses = ref [] in
  let body = imp s (relations, Some uses) ax.ax_vars in
  let f, xs, def =
    if not (Lex.accept_id s "where") then ("", [], True)
    else
      let f = Lex.ident s in
      Lex.expect s "(";
      let rec params () =
        let x = Lex.ident s in
        if Lex.accept s "," then x :: params () else [ x ]
      in
      let xs = params () in
      Lex.expect s ")";
      Lex.expect s ":=";
      (f, xs, imp s (relations, None) (xs @ ax.ax_vars))
  in
  (* every use is of the macro, with its arity *)
  List.iter
    (fun (g, n, at, after) ->
      if not (String.equal g f) then Lex.error_at s after "expected '=' or '<>'"
      else if n <> List.length xs then
        Lex.error_at s at "%s takes %d arguments" f (List.length xs))
    (List.rev !uses);
  if s.tok <> Lex.Eof then Lex.error s "trailing input after the statement";
  let use g ts =
    if String.equal g f then subst (List.combine xs ts) def else Atom (g, ts)
  in
  forall_many ax.ax_vars (map_prop Fun.id use body)

(* The refinement chain of concept [name] ([Decls.chain]) without the
   axioms [drop], parsed on first use and names prefixed, as a theory:
   its symbols renamed by [sym] for an instance. The theorems checked on
   an instance each ask for its theory again, so the last instance's
   axioms are kept and returned while that physical instance is asked
   for. *)
let theory ?(prefix = "") ?(drop = []) sym name =
  let axs =
    lazy
      (List.filter_map
         (fun (c, (ax : Concept.axiom)) ->
           if List.mem ax.ax_name drop then None
           else Some (prefix ^ ax.ax_name, of_statement c ax))
         (Decls.chain name))
  in
  let last = Atomic.make None in
  fun env ->
    match Atomic.get last with
    | Some (env', th) when env' == env -> th
    | _ ->
      let sym = sym env in
      let atom r ts = Atom (sym r, ts) in
      let th =
        List.map
          (fun (ax_name, p) -> { ax_name; ax_prop = map_prop sym atom p })
          (Lazy.force axs)
      in
      Atomic.set last (Some (env, th));
      th

let op_symbols m = function
  | "op" -> m.op
  | "id" -> m.e
  | "inverse" -> m.inv
  | s -> s

(* ------------------------------------------------------------------ *)
(* Algebraic theories                                                  *)
(* ------------------------------------------------------------------ *)

let semigroup = theory op_symbols "Semigroup"
let monoid = theory op_symbols "Monoid"

(* The *minimal* group presentation: right identity and right inverse are
   theorems, derived generically in {!Theorems}, which is how the checker
   certifies the Fig. 5 Group rewrite rule from first principles. *)
let group_minimal =
  theory ~drop:[ "right_identity"; "right_inverse" ] op_symbols "Group"

let abelian_group = theory op_symbols "AbelianGroup"

(* ------------------------------------------------------------------ *)
(* Order theories                                                      *)
(* ------------------------------------------------------------------ *)

(* Fig. 6: the Strict Weak Order axioms over a relation symbol [lt].
   E(x,y) := ~lt(x,y) /\ ~lt(y,x) is the induced equivalence. *)
let lt_atom lt x y = Atom (lt, [ x; y ])

let equiv lt x y = And (Not (lt_atom lt x y), Not (lt_atom lt y x))

let lt_symbol lt s = if String.equal s "lt" then lt else s

let swo = theory lt_symbol "StrictWeakOrder"
let strict_weak_order ~lt = swo lt

(* No registry concept states these: written here. *)
let axiom ax_name ax_prop = { ax_name; ax_prop }
let a = Var "a"
let b = Var "b"
let c = Var "c"

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

let ring_symbols rm = function
  | "add" -> rm.add.op
  | "mul" -> rm.mul.op
  | "zero" -> rm.add.e
  | "one" -> rm.mul.e
  | "neg" -> rm.add.inv
  | s -> s

(* The additive abelian group's axioms as add_*, the multiplicative
   monoid's as mul_*, then Ring's own. *)
let ring_add = theory ~prefix:"add_" op_symbols "AbelianGroup"
let ring_mul = theory ~prefix:"mul_" op_symbols "Monoid"
let ring_own = theory ring_symbols "Ring"
let ring rm = ring_add rm.add @ ring_mul rm.mul @ ring_own rm

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
