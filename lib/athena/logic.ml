(* First-order logic with equality: the proposition language of the proof
   checker (Section 3.3).

   Terms are variables and applications of function symbols; propositions
   are atoms (predicate applications), equality, the usual connectives, and
   quantifiers. Substitution is capture-avoiding; assumption-base
   membership uses alpha-equality so bound-variable names never matter. *)

type term =
  | Var of string
  | App of string * term list (* nullary App = constant *)

type prop =
  | True
  | False
  | Atom of string * term list
  | Eq of term * term
  | Not of prop
  | And of prop * prop
  | Or of prop * prop
  | Implies of prop * prop
  | Iff of prop * prop
  | Forall of string * prop
  | Exists of string * prop

let const c = App (c, [])

(* ------------------------------------------------------------------ *)
(* Prop operations: compared, scanned and substituted in place        *)
(* ------------------------------------------------------------------ *)

(* [sp], [sq]: each side's binders in scope, innermost first. Variables
   match when bound at the same depth or free under the same name. Equal
   binder names share one scope, so [p == q] under it needs no walk. *)
let rec depth x i = function
  | [] -> -1
  | y :: s -> if String.equal x y then i else depth x (i + 1) s

let rec term_alpha sp sq a b =
  match a, b with
  | Var x, Var y ->
    let i = depth x 0 sp in
    i = depth y 0 sq && (i >= 0 || String.equal x y)
  | App (f, xs), App (g, ys) -> String.equal f g && args_alpha sp sq xs ys
  | _, _ -> false

and args_alpha sp sq xs ys =
  match xs, ys with
  | [], [] -> true
  | a :: xs, b :: ys -> term_alpha sp sq a b && args_alpha sp sq xs ys
  | _, _ -> false

let term_equal a b = term_alpha [] [] a b

let rec prop_alpha sp sq p q =
  (p == q && sp == sq)
  ||
  match p, q with
  | True, True | False, False -> true
  | Atom (r, xs), Atom (s, ys) -> String.equal r s && args_alpha sp sq xs ys
  | Eq (a, b), Eq (c, d) -> term_alpha sp sq a c && term_alpha sp sq b d
  | Not a, Not b -> prop_alpha sp sq a b
  | And (a, b), And (c, d)
  | Or (a, b), Or (c, d)
  | Implies (a, b), Implies (c, d)
  | Iff (a, b), Iff (c, d) ->
    prop_alpha sp sq a c && prop_alpha sp sq b d
  | Forall (x, a), Forall (y, b) | Exists (x, a), Exists (y, b) ->
    let sp' = x :: sp in
    prop_alpha sp' (if sp == sq && String.equal x y then sp' else y :: sq) a b
  | _, _ -> false

let alpha_equal p q = prop_alpha [] [] p q

let rec mentions x = function
  | Var y -> String.equal x y
  | App (_, args) -> mentions_any x args

and mentions_any x = function
  | [] -> false
  | t :: ts -> mentions x t || mentions_any x ts

let rec occurs_free x = function
  | True | False -> false
  | Atom (_, args) -> mentions_any x args
  | Eq (a, b) -> mentions x a || mentions x b
  | Not p -> occurs_free x p
  | And (p, q) | Or (p, q) | Implies (p, q) | Iff (p, q) ->
    occurs_free x p || occurs_free x q
  | Forall (y, p) | Exists (y, p) -> (not (String.equal x y)) && occurs_free x p

let rec term_subst env = function
  | Var x -> (match List.assoc_opt x env with Some t -> t | None -> Var x)
  | App (f, args) -> App (f, List.map (term_subst env) args)

(* Some substituted term of [env] mentions [x]. *)
let rec captures x = function
  | [] -> false
  | (_, t) :: env -> mentions x t || captures x env

(* The first [x'k] free in neither [body] nor a term of [env]: a function
   of the substitution alone, never of what was checked before. *)
let fresh_var x env body =
  let rec go k =
    let v = x ^ "'" ^ string_of_int k in
    if occurs_free v body || captures v env then go (k + 1) else v
  in
  go 1

let rec subst env p =
  match p with
  | True | False -> p
  | Atom (r, args) -> Atom (r, List.map (term_subst env) args)
  | Eq (a, b) -> Eq (term_subst env a, term_subst env b)
  | Not q -> Not (subst env q)
  | And (a, b) -> And (subst env a, subst env b)
  | Or (a, b) -> Or (subst env a, subst env b)
  | Implies (a, b) -> Implies (subst env a, subst env b)
  | Iff (a, b) -> Iff (subst env a, subst env b)
  | Forall (x, body) -> subst_binder env x body (fun x b -> Forall (x, b))
  | Exists (x, body) -> subst_binder env x body (fun x b -> Exists (x, b))

(* A binder a substituted term mentions is renamed in the same pass: [x']
   is free in neither [body] nor [env], so [x := x'] meets no other entry. *)
and subst_binder env x body rebuild =
  let env = List.remove_assoc x env in
  if env = [] then rebuild x body
  else if captures x env then
    let x' = fresh_var x env body in
    rebuild x' (subst ((x, Var x') :: env) body)
  else rebuild x (subst env body)

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

(* Arguments are separated by a literal ", ", not [Fmt.comma], whose
   break hint prints as a newline outside a box; nor do they sit in a
   box, which itself breaks the line when it opens past the margin. The
   printer emits no break hint, so a proposition is always one line. *)
let rec pp_term ppf = function
  | Var x -> Fmt.string ppf x
  | App (f, []) -> Fmt.string ppf f
  | App (f, args) -> Fmt.pf ppf "%s(%a)" f pp_args args

and pp_args ppf args = Fmt.(list ~sep:(any ", ") pp_term) ppf args

let rec pp ppf = function
  | True -> Fmt.string ppf "true"
  | False -> Fmt.string ppf "false"
  | Atom (r, []) -> Fmt.string ppf r
  | Atom (r, args) -> Fmt.pf ppf "%s(%a)" r pp_args args
  | Eq (a, b) -> Fmt.pf ppf "%a = %a" pp_term a pp_term b
  | Not p -> Fmt.pf ppf "~%a" pp_atomic p
  | And (a, b) -> Fmt.pf ppf "(%a /\\ %a)" pp a pp b
  | Or (a, b) -> Fmt.pf ppf "(%a \\/ %a)" pp a pp b
  | Implies (a, b) -> Fmt.pf ppf "(%a ==> %a)" pp a pp b
  | Iff (a, b) -> Fmt.pf ppf "(%a <=> %a)" pp a pp b
  | Forall (x, p) -> Fmt.pf ppf "(forall %s. %a)" x pp p
  | Exists (x, p) -> Fmt.pf ppf "(exists %s. %a)" x pp p

and pp_atomic ppf p =
  match p with
  | True | False | Atom _ | Eq _ | Not _ -> pp ppf p
  | _ -> Fmt.pf ppf "(%a)" pp p

(* Convenience constructors. *)
let forall_many vars body =
  List.fold_right (fun x p -> Forall (x, p)) vars body
