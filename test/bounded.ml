(* QCheck's [int_range lo hi] shrinks toward 0 even when [lo > 0], so a
   shrunk counterexample can leave the range (a cache capacity of 0, a
   ring of one node) and the run reports the wrong failure. [int_range]
   here draws the offset from [lo] and shrinks it toward 0, so every
   value it generates or shrinks to lies in [[lo, hi]]. *)
let int_range lo hi =
  QCheck.set_print string_of_int
    (QCheck.map ~rev:(fun x -> x - lo) (fun x -> x + lo)
       (QCheck.int_range 0 (hi - lo)))
