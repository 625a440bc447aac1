(* The typed expression IR Simplicissimus rewrites.

   Every node carries the carrier type it computes ("int", "float", "bool",
   "string", "rational", "matrix", "bigfloat", ...). Operations are named
   by surface symbol ("+", "*", "&&", ".", "/", "neg", "inv", ...); the
   instance table in {!Instances} decides which (type, op) pairs model
   which algebraic concepts.

   [Ident (ty, op)] is the *symbolic* identity element of a carrier — for
   matrices the identity depends on the dimension, so it stays symbolic
   until evaluation. *)

type value = Gp_algebra.Decls.value =
  | VInt of int
  | VFloat of float
  | VBool of bool
  | VString of string
  | VRat of Gp_algebra.Rational.t
  | VMat of Gp_algebra.Instances.Qmat.t

type t =
  | Var of string * string (* name, type *)
  | Lit of value
  | Ident of string * string (* symbolic identity of (type, op) *)
  | Op of string * string * t list (* op symbol, result type, operands *)

let value_type = function
  | VInt _ -> "int"
  | VFloat _ -> "float"
  | VBool _ -> "bool"
  | VString _ -> "string"
  | VRat _ -> "rational"
  | VMat _ -> "matrix"

let type_of = function
  | Var (_, ty) -> ty
  | Lit v -> value_type v
  | Ident (ty, _) -> ty
  | Op (_, ty, _) -> ty

let value_equal a b =
  match a, b with
  | VInt x, VInt y -> x = y
  | VFloat x, VFloat y -> Float.equal x y
  | VBool x, VBool y -> x = y
  | VString x, VString y -> String.equal x y
  | VRat x, VRat y -> Gp_algebra.Rational.equal x y
  | VMat x, VMat y -> Gp_algebra.Instances.Qmat.equal x y
  | (VInt _ | VFloat _ | VBool _ | VString _ | VRat _ | VMat _), _ -> false

let rec equal a b =
  match a, b with
  | Var (x, t), Var (y, u) -> String.equal x y && String.equal t u
  | Lit v, Lit w -> value_equal v w
  | Ident (t, o), Ident (u, p) -> String.equal t u && String.equal o p
  | Op (o, t, xs), Op (p, u, ys) ->
    String.equal o p && String.equal t u
    && List.length xs = List.length ys
    && List.for_all2 equal xs ys
  | (Var _ | Lit _ | Ident _ | Op _), _ -> false

let pp_value ppf = function
  | VInt i -> Fmt.int ppf i
  | VFloat f -> Fmt.float ppf f
  | VBool b -> Fmt.bool ppf b
  | VString s -> Fmt.pf ppf "%S" s
  | VRat r -> Gp_algebra.Rational.pp ppf r
  | VMat m -> Gp_algebra.Instances.Qmat.pp ppf m

let rec pp ppf = function
  | Var (x, _) -> Fmt.string ppf x
  | Lit v -> pp_value ppf v
  | Ident (ty, op) -> Fmt.pf ppf "id<%s,%s>" ty op
  | Op (op, _, [ a; b ]) -> Fmt.pf ppf "(%a %s %a)" pp a op pp b
  | Op (op, _, [ a ]) -> Fmt.pf ppf "%s(%a)" op pp a
  | Op (op, _, args) ->
    Fmt.pf ppf "%s(%a)" op Fmt.(list ~sep:comma pp) args

let to_string e = Fmt.str "%a" pp e

(* Node count — the size measure reduced by simplification. *)
let rec size = function
  | Var _ | Lit _ | Ident _ -> 1
  | Op (_, _, args) -> List.fold_left (fun n e -> n + size e) 1 args

(* Count of operation nodes — the work measure. *)
let rec op_count = function
  | Var _ | Lit _ | Ident _ -> 0
  | Op (_, _, args) -> List.fold_left (fun n e -> n + op_count e) 1 args

(* Convenience builders. *)
let ivar x = Var (x, "int")
let fvar x = Var (x, "float")
let bvar x = Var (x, "bool")
let svar x = Var (x, "string")
let qvar x = Var (x, "rational")
let mvar x = Var (x, "matrix")
let int i = Lit (VInt i)
let float f = Lit (VFloat f)
let bool b = Lit (VBool b)
let string s = Lit (VString s)
let rat r = Lit (VRat r)
let binop op a b = Op (op, type_of a, [ a; b ])
let unop op a = Op (op, type_of a, [ a ])
