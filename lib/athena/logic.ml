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
(* Term operations                                                     *)
(* ------------------------------------------------------------------ *)

let rec term_equal a b =
  match a, b with
  | Var x, Var y -> String.equal x y
  | App (f, xs), App (g, ys) ->
    String.equal f g
    && List.length xs = List.length ys
    && List.for_all2 term_equal xs ys
  | (Var _ | App _), _ -> false

let rec term_vars acc = function
  | Var x -> if List.mem x acc then acc else x :: acc
  | App (_, args) -> List.fold_left term_vars acc args

let rec term_subst env = function
  | Var x -> (match List.assoc_opt x env with Some t -> t | None -> Var x)
  | App (f, args) -> App (f, List.map (term_subst env) args)

(* ------------------------------------------------------------------ *)
(* Prop operations                                                     *)
(* ------------------------------------------------------------------ *)

let rec free_vars acc = function
  | True | False -> acc
  | Atom (_, args) -> List.fold_left term_vars acc args
  | Eq (a, b) -> term_vars (term_vars acc a) b
  | Not p -> free_vars acc p
  | And (p, q) | Or (p, q) | Implies (p, q) | Iff (p, q) ->
    free_vars (free_vars acc p) q
  | Forall (x, p) | Exists (x, p) ->
    let inner = free_vars [] p in
    List.fold_left
      (fun acc v -> if v = x || List.mem v acc then acc else v :: acc)
      acc inner

let fresh_counter = ref 0

(* A globally fresh variable derived from the base name. *)
let fresh_var base =
  incr fresh_counter;
  Printf.sprintf "%s'%d" base !fresh_counter

(* Capture-avoiding substitution of terms for free variables. *)
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

and subst_binder env x body rebuild =
  let env = List.remove_assoc x env in
  if env = [] then rebuild x body
  else
    let clashes =
      List.exists (fun (_, t) -> List.mem x (term_vars [] t)) env
    in
    if clashes then begin
      let x' = fresh_var x in
      let body' = subst [ (x, Var x') ] body in
      rebuild x' (subst env body')
    end
    else rebuild x (subst env body)

(* Alpha-equality: rename binders to canonical de Bruijn-style names. *)
let alpha_equal p q =
  let rec norm depth env p =
    match p with
    | True | False -> p
    | Atom (r, args) -> Atom (r, List.map (term_subst env) args)
    | Eq (a, b) -> Eq (term_subst env a, term_subst env b)
    | Not a -> Not (norm depth env a)
    | And (a, b) -> And (norm depth env a, norm depth env b)
    | Or (a, b) -> Or (norm depth env a, norm depth env b)
    | Implies (a, b) -> Implies (norm depth env a, norm depth env b)
    | Iff (a, b) -> Iff (norm depth env a, norm depth env b)
    | Forall (x, body) ->
      let canon = Printf.sprintf "_%d" depth in
      Forall (canon, norm (depth + 1) ((x, Var canon) :: env) body)
    | Exists (x, body) ->
      let canon = Printf.sprintf "_%d" depth in
      Exists (canon, norm (depth + 1) ((x, Var canon) :: env) body)
  in
  norm 0 [] p = norm 0 [] q

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let rec pp_term ppf = function
  | Var x -> Fmt.string ppf x
  | App (f, []) -> Fmt.string ppf f
  | App (f, args) ->
    Fmt.pf ppf "%s(%a)" f Fmt.(list ~sep:comma pp_term) args

let rec pp ppf = function
  | True -> Fmt.string ppf "true"
  | False -> Fmt.string ppf "false"
  | Atom (r, []) -> Fmt.string ppf r
  | Atom (r, args) -> Fmt.pf ppf "%s(%a)" r Fmt.(list ~sep:comma pp_term) args
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

let to_string p = Fmt.str "%a" pp p

(* Convenience constructors. *)
let forall_many vars body =
  List.fold_right (fun x p -> Forall (x, p)) vars body

let conj = function
  | [] -> True
  | p :: rest -> List.fold_left (fun a b -> And (a, b)) p rest
