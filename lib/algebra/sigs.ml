(* The algebraic concept hierarchy as OCaml module types.

   This is the compile-time face of the paper's algebraic concepts
   (Section 3.2, Fig. 5): Semigroup -> Monoid -> Group -> AbelianGroup, and
   Ring -> Field on two operations. The same hierarchy is mirrored as
   runtime concept values in {!Decls} so checking, dispatch, rewriting and
   proofs can reason about it.

   Every module type carries the semantic axioms in its documentation; the
   corresponding statements are {!Decls}' axioms, which gp_athena's
   theories parse into propositions and the tests evaluate on values. *)

module type EQ = sig
  type t

  val equal : t -> t -> bool
  val pp : Format.formatter -> t -> unit
end

(** Binary operation, associative: [op (op a b) c = op a (op b c)]. *)
module type SEMIGROUP = sig
  include EQ

  val op : t -> t -> t
end

(** Semigroup with two-sided identity: [op a id = a = op id a]. *)
module type MONOID = sig
  include SEMIGROUP

  val id : t
end

(** Monoid with inverses: [op a (inverse a) = id = op (inverse a) a].

    Note on floating point: [(float, *.)] is only approximately a Group
    (rounding); the paper's Fig. 5 nevertheless lists [f *. (1.0 /. f)] as a
    Group instance, and so do we, with the caveat recorded as an asserted
    (not proved) axiom. *)
module type GROUP = sig
  include MONOID

  val inverse : t -> t
end

(** Group with commutative operation: [op a b = op b a]. *)
module type ABELIAN_GROUP = GROUP

(** Two operations: (t, add, zero, neg) an abelian group, (t, mul, one) a
    monoid, mul distributes over add. *)
module type RING = sig
  include EQ

  val zero : t
  val one : t
  val add : t -> t -> t
  val neg : t -> t
  val mul : t -> t -> t
end

(** Commutative ring where every nonzero element has a multiplicative
    inverse. [inv zero] raises [Division_by_zero]. *)
module type FIELD = sig
  include RING

  val inv : t -> t
end

(** The additive group of a ring. *)
module Additive (R : RING) : ABELIAN_GROUP with type t = R.t = struct
  type t = R.t

  let equal = R.equal
  let pp = R.pp
  let op = R.add
  let id = R.zero
  let inverse = R.neg
end

(** The multiplicative monoid of a ring. *)
module Multiplicative (R : RING) : MONOID with type t = R.t = struct
  type t = R.t

  let equal = R.equal
  let pp = R.pp
  let op = R.mul
  let id = R.one
end

(** The multiplicative group of the nonzero elements of a field (partial:
    inverse of zero raises). *)
module Units (F : FIELD) : GROUP with type t = F.t = struct
  type t = F.t

  let equal = F.equal
  let pp = F.pp
  let op = F.mul
  let id = F.one
  let inverse = F.inv
end

(** Iterated operation via binary powering — any monoid gets an O(log n)
    [power]; a favourite generic-programming example (Stepanov). *)
module Power (M : MONOID) = struct
  let power x n =
    if n < 0 then invalid_arg "Power.power: negative exponent";
    let rec go acc base n =
      if n = 0 then acc
      else
        let acc = if n land 1 = 1 then M.op acc base else acc in
        go acc (M.op base base) (n lsr 1)
    in
    go M.id x n
end

(** Power extended to negative exponents over a group. *)
module Group_power (G : GROUP) = struct
  module P = Power (G)

  let power x n = if n >= 0 then P.power x n else G.inverse (P.power x (-n))
end
