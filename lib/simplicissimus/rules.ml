(* Concept-based rewrite rules.

   A rule is a pattern -> template pair guarded by a concept requirement on
   the (type, op) carrier of the matched node — the two rows of Fig. 5:

     x + 0      -> x     when (x, +)    models Monoid
     x + (-x)   -> 0     when (x, +, -) models Group

   plus companions (left identity, left inverse, double inverse, identity
   folding) and arbitrary user rules (the LiDIA 1.0/f -> Inverse(f)
   example), which fire on one library carrier instead. Patterns are
   nonlinear: the same pattern variable must match structurally equal
   subexpressions, which is what [x + (-x)] needs. *)

type pattern =
  | P_any of string (* binds a metavariable; nonlinear *)
  | P_identity (* the identity element of the carrier under match *)
  | P_op of pattern list (* the carrier's own operation *)
  | P_inverse of pattern (* the carrier's inverse operation *)
  | P_lit of Expr.value
  | P_exact of string * pattern list (* a specific op symbol (user rules) *)
  | P_ring_zero
      (* the additive zero of the ring whose multiplication is the carrier *)

type template =
  | T_var of string (* a bound metavariable *)
  | T_identity (* the carrier's identity *)
  | T_op of template list
  | T_inverse of template
  | T_lit of Expr.value
  | T_exact of string * template list
  | T_ring_zero

type guard =
  | Concept of string (* the carrier must model this concept *)
  | Carrier of string * string
      (* user rules fire only on this library carrier (type, op) *)

type t = {
  rule_name : string;
  guard : guard;
  requires_ring : bool;
      (* additionally require a registered ring with this carrier as its
         multiplication (the annihilation rules) *)
  lhs : pattern;
  rhs : template;
}

let make ?(requires_ring = false) ~name ~guard ~lhs ~rhs () =
  { rule_name = name; guard; requires_ring; lhs; rhs }

(* What the root of the LHS can match — the engine's dispatch key. A
   [P_op] root only ever matches a node whose symbol IS the carrier op
   under trial, and a [P_inverse] root only a node whose symbol is a
   carrier's inverse op; [P_exact] pins a symbol outright; everything
   else (a bare metavariable, identity, literal, ring zero) is a
   wildcard that must be tried everywhere. *)
type head =
  | Head_exact of string (* root must be this op symbol *)
  | Head_carrier_op (* root must be the carrier's own op *)
  | Head_carrier_inverse (* root must be a carrier's inverse op *)
  | Head_any (* variable-headed: no symbol constraint *)

let head r =
  match r.lhs with
  | P_exact (o, _) -> Head_exact o
  | P_op _ -> Head_carrier_op
  | P_inverse _ -> Head_carrier_inverse
  | P_any _ | P_identity | P_lit _ | P_ring_zero -> Head_any

(* ------------------------------------------------------------------ *)
(* Matching                                                            *)
(* ------------------------------------------------------------------ *)

(* Match [pat] against [expr] where the carrier is (ty, op). Bindings are
   checked for nonlinear consistency. *)
let match_pattern insts ~ty ~op pat expr =
  let rec go bindings pat (expr : Expr.t) =
    match pat, expr with
    | P_any x, e -> (
      match List.assoc_opt x bindings with
      | Some e' -> if Expr.equal e e' then Some bindings else None
      | None -> Some ((x, e) :: bindings))
    | P_identity, e ->
      if Instances.is_identity insts ~ty ~op e then Some bindings else None
    | P_lit v, Expr.Lit w -> if Expr.value_equal v w then Some bindings else None
    | P_lit _, _ -> None
    | P_op pats, Expr.Op (o, t, args)
      when String.equal o op && String.equal t ty
           && List.length pats = List.length args ->
      go_list bindings pats args
    | P_op _, _ -> None
    | P_inverse pat', Expr.Op (o, t, [ arg ]) when String.equal t ty -> (
      match Instances.inverse_op insts ~ty ~op with
      | Some inv when String.equal o inv -> go bindings pat' arg
      | Some _ | None -> None)
    | P_inverse _, _ -> None
    | P_exact (o, pats), Expr.Op (o', _, args)
      when String.equal o o' && List.length pats = List.length args ->
      go_list bindings pats args
    | P_exact _, _ -> None
    | P_ring_zero, e ->
      if Instances.is_ring_zero insts ~ty ~op e then Some bindings else None
  and go_list bindings pats args =
    match pats, args with
    | [], [] -> Some bindings
    | p :: ps, a :: args -> (
      match go bindings p a with
      | Some b -> go_list b ps args
      | None -> None)
    | _ -> None
  in
  go [] pat expr

let rec instantiate insts ~ty ~op bindings = function
  | T_var x -> (
    match List.assoc_opt x bindings with
    | Some e -> e
    | None -> invalid_arg ("unbound template variable " ^ x))
  | T_identity -> Instances.identity_expr insts ~ty ~op
  | T_lit v -> Expr.Lit v
  | T_op ts ->
    Expr.Op (op, ty, List.map (instantiate insts ~ty ~op bindings) ts)
  | T_inverse t -> (
    match Instances.inverse_op insts ~ty ~op with
    | Some inv ->
      Expr.Op (inv, ty, [ instantiate insts ~ty ~op bindings t ])
    | None -> invalid_arg "template uses inverse but carrier has none")
  | T_exact (o, ts) -> (
    let args = List.map (instantiate insts ~ty ~op bindings) ts in
    match args with
    | first :: _ -> Expr.Op (o, Expr.type_of first, args)
    | [] -> Expr.Op (o, ty, []))
  | T_ring_zero -> Instances.ring_zero_expr insts ~ty ~op

(* ------------------------------------------------------------------ *)
(* The built-in concept-based rules                                    *)
(* ------------------------------------------------------------------ *)

(* Fig. 5 row 1: x + 0 -> x, for every Monoid carrier. *)
let right_identity =
  make ~name:"right-identity" ~guard:(Concept "Monoid")
    ~lhs:(P_op [ P_any "x"; P_identity ])
    ~rhs:(T_var "x") ()

let left_identity =
  make ~name:"left-identity" ~guard:(Concept "Monoid")
    ~lhs:(P_op [ P_identity; P_any "x" ])
    ~rhs:(T_var "x") ()

(* Fig. 5 row 2: x + (-x) -> 0, for every Group carrier. Nonlinear. *)
let right_inverse =
  make ~name:"right-inverse" ~guard:(Concept "Group")
    ~lhs:(P_op [ P_any "x"; P_inverse (P_any "x") ])
    ~rhs:T_identity ()

let left_inverse =
  make ~name:"left-inverse" ~guard:(Concept "Group")
    ~lhs:(P_op [ P_inverse (P_any "x"); P_any "x" ])
    ~rhs:T_identity ()

(* inv(inv x) -> x, certified by the group double-inverse theorem. *)
let double_inverse =
  make ~name:"double-inverse" ~guard:(Concept "Group")
    ~lhs:(P_inverse (P_inverse (P_any "x")))
    ~rhs:(T_var "x") ()

(* id + id -> id: folding identities (a consequence of either identity
   axiom; keeps normal forms tidy). *)
let identity_fold =
  make ~name:"identity-fold" ~guard:(Concept "Monoid")
    ~lhs:(P_op [ P_identity; P_identity ])
    ~rhs:T_identity ()

(* Ring annihilation (x * 0 -> 0 and 0 * x -> 0): the carrier under
   match is the ring's multiplication; the zero belongs to its additive
   structure. Certified by the athena ring theorems. *)
let mul_zero_right =
  make ~name:"annihilation-right" ~guard:(Concept "Semigroup")
    ~requires_ring:true
    ~lhs:(P_op [ P_any "x"; P_ring_zero ])
    ~rhs:T_ring_zero ()

let mul_zero_left =
  make ~name:"annihilation-left" ~guard:(Concept "Semigroup")
    ~requires_ring:true
    ~lhs:(P_op [ P_ring_zero; P_any "x" ])
    ~rhs:T_ring_zero ()

let builtin = [ right_identity; left_identity; right_inverse; left_inverse;
                double_inverse; identity_fold; mul_zero_right; mul_zero_left ]

(* ------------------------------------------------------------------ *)
(* User rules                                                          *)
(* ------------------------------------------------------------------ *)

(* The LiDIA example (Section 3.2): an arbitrary-precision float library
   provides a more efficient Inverse() than the generic 1.0/f; the library
   author registers the specialisation. *)
let lidia_inverse =
  make ~name:"lidia: 1.0/f -> f.Inverse()"
    ~guard:(Carrier ("bigfloat", "/"))
    ~lhs:(P_exact ("/", [ P_lit (Expr.VFloat 1.0); P_any "f" ]))
    ~rhs:(T_exact ("Inverse", [ T_var "f" ]))
    ()

let standard = builtin @ [ lidia_inverse ]
