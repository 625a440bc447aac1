(* Evaluator for the expression IR — the semantic ground truth the
   property tests compare rewriting against (rewriting must never change an
   expression's value) and the benches time (simplified vs original).

   Matrix identities are symbolic in the IR; evaluation resolves them at
   the dimension given by [mat_dim]. "bigfloat" values evaluate as floats;
   [Inverse] and [/] agree semantically (the LiDIA rule is a cost
   specialisation, not a semantic change). *)

exception Type_error of string

let fail fmt = Fmt.kstr (fun s -> raise (Type_error s)) fmt

open Expr

let as_int = function VInt i -> i | v -> fail "expected int, got %a" pp_value v
let as_float = function
  | VFloat f -> f
  | v -> fail "expected float, got %a" pp_value v
let as_bool = function
  | VBool b -> b
  | v -> fail "expected bool, got %a" pp_value v
let as_string = function
  | VString s -> s
  | v -> fail "expected string, got %a" pp_value v
let as_rat = function
  | VRat r -> r
  | v -> fail "expected rational, got %a" pp_value v
let as_mat = function
  | VMat m -> m
  | v -> fail "expected matrix, got %a" pp_value v

let apply ~mat_dim ty op args =
  ignore mat_dim;
  match ty, op, args with
  | "int", "+", [ a; b ] -> VInt (as_int a + as_int b)
  | "int", "-", [ a; b ] -> VInt (as_int a - as_int b)
  | "int", "*", [ a; b ] -> VInt (as_int a * as_int b)
  | "int", "&", [ a; b ] -> VInt (as_int a land as_int b)
  | "int", "|", [ a; b ] -> VInt (as_int a lor as_int b)
  | "int", "neg", [ a ] -> VInt (-as_int a)
  | "bool", "&&", [ a; b ] -> VBool (as_bool a && as_bool b)
  | "bool", "||", [ a; b ] -> VBool (as_bool a || as_bool b)
  | "string", "^", [ a; b ] -> VString (as_string a ^ as_string b)
  | "float", "+", [ a; b ] -> VFloat (as_float a +. as_float b)
  | "float", "*", [ a; b ] -> VFloat (as_float a *. as_float b)
  | "float", "/", [ a; b ] -> VFloat (as_float a /. as_float b)
  | "float", "neg", [ a ] -> VFloat (-.as_float a)
  | "float", "inv", [ a ] -> VFloat (1.0 /. as_float a)
  | "rational", "+", [ a; b ] -> VRat (Gp_algebra.Rational.add (as_rat a) (as_rat b))
  | "rational", "*", [ a; b ] -> VRat (Gp_algebra.Rational.mul (as_rat a) (as_rat b))
  | "rational", "neg", [ a ] -> VRat (Gp_algebra.Rational.neg (as_rat a))
  | "rational", "inv", [ a ] -> VRat (Gp_algebra.Rational.inv (as_rat a))
  | ("matrix" | "invertible_matrix"), ".", [ a; b ] ->
    VMat (Gp_algebra.Instances.Qmat.mul (as_mat a) (as_mat b))
  | ("matrix" | "invertible_matrix"), "inv", [ a ] ->
    VMat (Gp_algebra.Instances.Qmat.inverse (as_mat a))
  | "bigfloat", "/", [ a; b ] -> VFloat (as_float a /. as_float b)
  | "bigfloat", "*", [ a; b ] -> VFloat (as_float a *. as_float b)
  | "bigfloat", "Inverse", [ a ] -> VFloat (1.0 /. as_float a)
  | _ ->
    fail "no implementation for %s.%s/%d" ty op (List.length args)

(* The concrete identity of a carrier: its row's literal; the matrix
   rows' identities are symbolic, resolved at the given dimension. *)
let identity_value ~mat_dim ty op =
  match
    List.find_opt
      (fun (c : Gp_algebra.Decls.carrier) ->
        String.equal c.c_elem ty && String.equal c.c_op op)
      Gp_algebra.Decls.carriers
  with
  | Some { c_identity = Some v; _ } -> v
  | Some { c_identity = None; _ } ->
    VMat (Gp_algebra.Instances.Qmat.identity mat_dim)
  | None -> fail "no identity for (%s, %s)" ty op

let rec eval ?(mat_dim = 2) ~env expr =
  match expr with
  | Var (x, _) -> (
    match List.assoc_opt x env with
    | Some v -> v
    | None -> fail "unbound variable %s" x)
  | Lit v -> v
  | Ident (ty, op) -> identity_value ~mat_dim ty op
  | Op (op, ty, args) ->
    let on_ty =
      (* unary inverse ops are evaluated on the operand's carrier *)
      match op, args with
      | ("neg" | "inv"), [ a ] -> Expr.type_of a
      | _ -> ty
    in
    apply ~mat_dim on_ty op (List.map (eval ~mat_dim ~env) args)
