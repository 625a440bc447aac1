(* A double-ended queue as a growable ring buffer with checked random-access
   iterators.

   Invalidation semantics approximate std::deque conservatively: push at
   either end may reallocate, so any push or pop bumps the version and
   invalidates outstanding iterators. *)

include Ring

let of_list ~dummy xs =
  Ring.create ~name:"Deque" ~noun:"deque"
    ~stale:"deque iterator used after a mutation" ~dummy xs

let create ~dummy () = of_list ~dummy []

let push_front t v =
  reserve t (t.len + 1);
  let cap = Array.length t.data in
  t.head <- (t.head + cap - 1) mod cap;
  t.data.(t.head) <- v;
  t.len <- t.len + 1;
  t.version <- t.version + 1

let pop_front t =
  if t.len = 0 then invalid_arg "Deque.pop_front: empty";
  t.data.(t.head) <- t.dummy;
  t.head <- (t.head + 1) mod Array.length t.data;
  t.len <- t.len - 1;
  t.version <- t.version + 1

let pp pp_elem ppf t =
  Fmt.pf ppf "deque[%a]" Fmt.(list ~sep:(any "; ") pp_elem) (to_list t)
