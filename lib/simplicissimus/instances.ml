(* The surface table: what the rewriter needs to know about a carrier
   (type, operation symbol) beyond whether it models a concept — that is
   the registry's answer alone, asked of the carrier type "ty[op]" — and
   which carriers pair into rings. [standard] reads both from the one
   declaration of each standard carrier, Gp_algebra.Decls. *)

module Ctype = Gp_concepts.Ctype
module Decls = Gp_algebra.Decls

type entry = {
  e_type : string; (* carrier element type, e.g. "int" *)
  e_op : string; (* operation symbol, e.g. "+" *)
  e_carrier : Ctype.t list; (* [Named "ty[op]"]: a guard's argument list *)
  e_identity : Expr.value option; (* concrete identity literal, if fixed *)
  e_inverse : string option; (* inverse op symbol *)
}

(* Lookups are all keyed by (type, op) pairs, so the table maintains
   hashtable indexes eagerly alongside the entry list (every mutation
   goes through [add] or [standard]; there is no external mutation
   path). [Hashtbl.replace] gives the same most-recent-declaration-wins
   semantics as the head-first list scans it replaces. *)
type t = {
  registry : Gp_concepts.Registry.t; (* what [models] asks *)
  mutable entries : entry list; (* most-recent-first *)
  by_key : (string * string, entry) Hashtbl.t; (* (ty, op) -> entry *)
  by_inverse : (string * string, (string * string) list) Hashtbl.t;
      (* (ty, inverse op) -> owning carriers (ty, op), insertion order *)
  ring_by_mul : (string * string, Decls.ring) Hashtbl.t;
      (* (ty, multiplicative op) -> ring *)
}

let create registry =
  { registry; entries = []; by_key = Hashtbl.create 32;
    by_inverse = Hashtbl.create 16; ring_by_mul = Hashtbl.create 8 }

let registry t = t.registry

let add t ?identity ?inverse ~ty ~op () =
  let e =
    {
      e_type = ty;
      e_op = op;
      e_carrier = [ Named (Decls.carrier_name ~elem:ty ~op) ];
      e_identity = identity;
      e_inverse = inverse;
    }
  in
  t.entries <- e :: t.entries;
  Hashtbl.replace t.by_key (ty, op) e;
  match inverse with
  | None -> ()
  | Some inv ->
    let key = (ty, inv) in
    let prev = Option.value ~default:[] (Hashtbl.find_opt t.by_inverse key) in
    Hashtbl.replace t.by_inverse key (prev @ [ (ty, op) ])

let find t ~ty ~op = Hashtbl.find_opt t.by_key (ty, op)

(* The ring whose *multiplicative* operation is (ty, op), if any — what
   the annihilation rules' guard asks. *)
let ring_for t ~ty ~op = Hashtbl.find_opt t.ring_by_mul (ty, op)

(* Carriers whose declared inverse operation is (ty, op) — what the
   engine's candidate carriers ask at every Op node; the index
   replaces its scan (and re-reversal) of the whole entry list. *)
let inverse_carriers t ~ty ~op =
  Option.value ~default:[] (Hashtbl.find_opt t.by_inverse (ty, op))

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
    let name = Decls.carrier_name ~elem:ty ~op in
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

(* The ring's zero is its additive carrier's identity. *)
let is_ring_zero t ~ty ~op expr =
  match ring_for t ~ty ~op with
  | None -> false
  | Some r -> is_identity t ~ty ~op:r.r_add expr

let ring_zero_expr t ~ty ~op =
  match ring_for t ~ty ~op with
  | Some r -> identity_expr t ~ty ~op:r.r_add
  | None -> invalid_arg (Printf.sprintf "no ring with multiplication (%s, %s)" ty op)

let inverse_op t ~ty ~op =
  match find t ~ty ~op with
  | Some { e_inverse; _ } -> e_inverse
  | None -> None

(* The standard table: every carrier and ring of Gp_algebra.Decls, the
   carriers its [declare] registers, in declaration order. *)
let standard registry =
  let t = create registry in
  List.iter
    (fun (c : Decls.carrier) ->
      add t ?identity:c.c_identity ?inverse:c.c_inverse ~ty:c.c_elem
        ~op:c.c_op ())
    Decls.carriers;
  List.iter
    (fun (r : Decls.ring) ->
      Hashtbl.replace t.ring_by_mul (r.r_elem, r.r_mul) r)
    Decls.rings;
  t

let entries t = List.rev t.entries
