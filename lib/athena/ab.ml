(* The assumption base: "an associative memory of propositions that have
   been asserted or proved in a proof session. The assumption base is
   fundamental to Athena's approach to deduction; all proof activity
   centers around it."

   Membership is up to alpha-equality. The base is persistent (functional),
   so [Assume] can extend it locally without mutation. *)

type t = { props : Logic.prop list }

let empty = { props = [] }

let mem p t = List.exists (Logic.alpha_equal p) t.props

let insert p t = if mem p t then t else { props = p :: t.props }

let of_list ps = List.fold_left (fun t p -> insert p t) empty ps

let exists f t = List.exists f t.props
