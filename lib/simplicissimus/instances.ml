(* The surface table: what the rewriter needs to know about a carrier
   (type, operation symbol) beyond whether it models a concept — that is
   the registry's answer alone, asked of the carrier type "ty[op]". Each
   entry records how its axioms are discharged (proved via gp_athena, or
   merely asserted — floats!); [Certify.discharge_instance_axioms]
   declares the proved ones into a registry it is given. *)

module Ctype = Gp_concepts.Ctype

type entry = {
  e_type : string; (* carrier element type, e.g. "int" *)
  e_op : string; (* operation symbol, e.g. "+" *)
  e_carrier : Ctype.t list; (* [Named "ty[op]"]: a guard's argument list *)
  e_identity : Expr.value option; (* concrete identity literal, if fixed *)
  e_inverse : string option; (* inverse op symbol *)
  e_axioms_proved : bool; (* exact instance (true) vs asserted (float) *)
  e_mapping : Gp_athena.Theory.mapping option; (* athena operator mapping *)
}

(* A ring structure ties two carriers on the same element type together:
   (ty, add) an abelian group and (ty, mul) a monoid, with multiplication
   annihilated by the additive zero (a theorem, see
   Gp_athena.Theorems.ring_mul_zero). *)
type ring_entry = {
  rg_type : string;
  rg_add : string; (* additive op symbol *)
  rg_mul : string; (* multiplicative op symbol *)
  rg_zero : Expr.value option; (* the additive zero, if concrete *)
}

(* Lookups are all keyed by (type, op) pairs, so the table maintains
   hashtable indexes eagerly alongside the entry lists (every mutation
   goes through [add] / [add_ring]; there is no external mutation path).
   [Hashtbl.replace] gives the same most-recent-declaration-wins
   semantics as the head-first list scans it replaces. *)
type t = {
  registry : Gp_concepts.Registry.t; (* what [models] asks *)
  mutable entries : entry list; (* most-recent-first *)
  mutable rings : ring_entry list; (* most-recent-first *)
  mutable entries_cache : entry list option;
      (* memoised insertion-order view served by [entries] *)
  by_key : (string * string, entry) Hashtbl.t; (* (ty, op) -> entry *)
  by_inverse : (string * string, (string * string) list) Hashtbl.t;
      (* (ty, inverse op) -> owning carriers (ty, op), insertion order *)
  ring_by_mul : (string * string, ring_entry) Hashtbl.t;
      (* (ty, multiplicative op) -> ring *)
}

let create registry =
  { registry; entries = []; rings = []; entries_cache = None;
    by_key = Hashtbl.create 32; by_inverse = Hashtbl.create 16;
    ring_by_mul = Hashtbl.create 8 }

let registry t = t.registry

let add t ?identity ?inverse ?mapping ?(proved = true) ~ty ~op () =
  let e =
    {
      e_type = ty;
      e_op = op;
      e_carrier = [ Named (Gp_algebra.Decls.carrier_name ~elem:ty ~op) ];
      e_identity = identity;
      e_inverse = inverse;
      e_axioms_proved = proved;
      e_mapping = mapping;
    }
  in
  t.entries <- e :: t.entries;
  t.entries_cache <- None;
  Hashtbl.replace t.by_key (ty, op) e;
  match inverse with
  | None -> ()
  | Some inv ->
    let key = (ty, inv) in
    let prev = Option.value ~default:[] (Hashtbl.find_opt t.by_inverse key) in
    Hashtbl.replace t.by_inverse key (prev @ [ (ty, op) ])

let add_ring t ?zero ~ty ~add_op ~mul_op () =
  let r = { rg_type = ty; rg_add = add_op; rg_mul = mul_op; rg_zero = zero } in
  t.rings <- r :: t.rings;
  Hashtbl.replace t.ring_by_mul (ty, mul_op) r

let find t ~ty ~op = Hashtbl.find_opt t.by_key (ty, op)

(* The ring whose *multiplicative* operation is (ty, op), if any — what
   the annihilation rules' guard asks. *)
let ring_for t ~ty ~op = Hashtbl.find_opt t.ring_by_mul (ty, op)

(* Carriers whose declared inverse operation is (ty, op) — what the
   engine's candidate carriers ask at every Op node; the index
   replaces its scan (and re-reversal) of the whole entry list. *)
let inverse_carriers t ~ty ~op =
  Option.value ~default:[] (Hashtbl.find_opt t.by_inverse (ty, op))

(* Is [expr] the additive zero of the ring whose multiplication is
   (ty, op)? *)
let is_ring_zero t ~ty ~op (expr : Expr.t) =
  match ring_for t ~ty ~op with
  | None -> false
  | Some r -> (
    match expr with
    | Expr.Ident (t', o') -> String.equal t' ty && String.equal o' r.rg_add
    | Expr.Lit v -> (
      match r.rg_zero with Some z -> Expr.value_equal v z | None -> false)
    | Expr.Var _ | Expr.Op _ -> false)

let ring_zero_expr t ~ty ~op =
  match ring_for t ~ty ~op with
  | Some { rg_zero = Some z; _ } -> Expr.Lit z
  | Some { rg_add; _ } -> Expr.Ident (ty, rg_add)
  | None -> invalid_arg (Printf.sprintf "no ring with multiplication (%s, %s)" ty op)

(* Does (ty, op) model [concept]? The question every rewrite-rule guard
   asks, answered by the registry's nominal check (memoised there per
   generation); an entry carries its argument list prebuilt. A type the
   registry does not declare models nothing and is not checked, so the
   unary symbol at every inverse node (int[neg]) leaves no verdict in
   the registry's memo. *)
let models t ~ty ~op concept =
  let open Gp_concepts in
  match find t ~ty ~op with
  | Some e -> Check.models ~mode:Check.Nominal t.registry concept e.e_carrier
  | None ->
    let name = Gp_algebra.Decls.carrier_name ~elem:ty ~op in
    Option.is_some (Registry.find_type t.registry name)
    && Check.models ~mode:Check.Nominal t.registry concept [ Ctype.Named name ]

(* Is [expr] the identity element of (ty, op)? Symbolic identities match by
   construction; literals match by value. *)
let is_identity t ~ty ~op (expr : Expr.t) =
  match expr with
  | Expr.Ident (t', o') -> String.equal t' ty && String.equal o' op
  | Expr.Lit v -> (
    match find t ~ty ~op with
    | Some { e_identity = Some id; _ } -> Expr.value_equal v id
    | Some { e_identity = None; _ } | None -> false)
  | Expr.Var _ | Expr.Op _ -> false

let identity_expr t ~ty ~op =
  match find t ~ty ~op with
  | Some { e_identity = Some v; _ } -> Expr.Lit v
  | Some { e_identity = None; _ } | None -> Expr.Ident (ty, op)

let inverse_op t ~ty ~op =
  match find t ~ty ~op with
  | Some { e_inverse; _ } -> e_inverse
  | None -> None

(* The standard table: the ten Fig. 5 instances plus the exact rational and
   bitwise/boolean companions, the carriers Gp_algebra.Decls declares. *)
let standard registry =
  let t = create registry in
  let open Expr in
  let open Gp_athena.Theory in
  add t ~ty:"int" ~op:"+" ~identity:(VInt 0) ~inverse:"neg" ~mapping:int_add ();
  add t ~ty:"int" ~op:"*" ~identity:(VInt 1) ~mapping:int_mul ();
  add t ~ty:"int" ~op:"&" ~identity:(VInt (-1)) ~mapping:int_band ();
  add t ~ty:"int" ~op:"|" ~identity:(VInt 0) ();
  add t ~ty:"bool" ~op:"&&" ~identity:(VBool true) ~mapping:bool_and ();
  add t ~ty:"bool" ~op:"||" ~identity:(VBool false) ();
  add t ~ty:"string" ~op:"^" ~identity:(VString "") ~mapping:string_concat ();
  (* floats: the axioms hold only approximately — asserted, not proved *)
  add t ~ty:"float" ~op:"+" ~identity:(VFloat 0.0) ~inverse:"neg"
    ~proved:false ();
  add t ~ty:"float" ~op:"*" ~identity:(VFloat 1.0) ~inverse:"inv"
    ~proved:false ~mapping:float_mul ();
  add t ~ty:"rational" ~op:"+" ~identity:(VRat Gp_algebra.Rational.zero)
    ~inverse:"neg" ();
  add t ~ty:"rational" ~op:"*" ~identity:(VRat Gp_algebra.Rational.one)
    ~inverse:"inv" ~mapping:rational_mul ();
  (* matrix identity is dimension-dependent: symbolic *)
  add t ~ty:"matrix" ~op:"." ~mapping:matrix_mul ();
  add t ~ty:"invertible_matrix" ~op:"." ~inverse:"inv" ();
  (* ring structures: the annihilation rules' guards *)
  add_ring t ~ty:"int" ~add_op:"+" ~mul_op:"*" ~zero:(VInt 0) ();
  add_ring t ~ty:"float" ~add_op:"+" ~mul_op:"*" ~zero:(VFloat 0.0) ();
  add_ring t ~ty:"rational" ~add_op:"+" ~mul_op:"*"
    ~zero:(VRat Gp_algebra.Rational.zero) ();
  t

let entries t =
  match t.entries_cache with
  | Some l -> l
  | None ->
    let l = List.rev t.entries in
    t.entries_cache <- Some l;
    l

let rings t = List.rev t.rings
