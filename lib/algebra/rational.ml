(* Exact rational arithmetic — the honest Field instance.

   Fig. 5 lists [r * r^-1 -> 1] for rationals as a Group instance; floating
   point only approximates the axioms, so the reproduction carries an exact
   rational type for which the Field axioms genuinely hold (and are checked
   by property tests and certified through gp_athena). Numerator and
   denominator are kept reduced with a positive denominator. *)

type t = { num : int; den : int } (* invariant: den > 0, gcd(|num|,den)=1 *)

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

let make num den =
  if den = 0 then raise Division_by_zero;
  let s = if den < 0 then -1 else 1 in
  let num = s * num and den = s * den in
  let g = gcd (abs num) den in
  if g = 0 then { num = 0; den = 1 } else { num = num / g; den = den / g }

let of_int n = { num = n; den = 1 }
let zero = of_int 0
let one = of_int 1
let num t = t.num
let equal a b = a.num = b.num && a.den = b.den

let compare a b = Stdlib.compare (a.num * b.den) (b.num * a.den)

let add a b = make ((a.num * b.den) + (b.num * a.den)) (a.den * b.den)
let neg a = { a with num = -a.num }
let sub a b = add a (neg b)
let mul a b = make (a.num * b.num) (a.den * b.den)

let inv a = if a.num = 0 then raise Division_by_zero else make a.den a.num
let div a b = mul a (inv b)

let to_float a = float_of_int a.num /. float_of_int a.den

let pp ppf a =
  if a.den = 1 then Fmt.int ppf a.num else Fmt.pf ppf "%d/%d" a.num a.den

let to_string a = Fmt.str "%a" pp a

module Field : Sigs.FIELD with type t = t = struct
  type nonrec t = t

  let equal = equal
  let pp = pp
  let zero = zero
  let one = one
  let add = add
  let neg = neg
  let mul = mul
  let inv = inv
end
