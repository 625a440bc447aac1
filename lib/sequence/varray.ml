(* A growable array ("vector") with checked random-access iterators: a ring
   buffer whose head stays at slot 0.

   Invalidation semantics mirror std::vector: any reallocation or erasure
   invalidates all outstanding iterators (we are conservative: push_back
   always bumps the version, as iterators hold positions into a buffer that
   may have moved). Iterators capture the version at creation; use after an
   invalidating mutation raises {!Iter.Invalidated}. *)

include Ring

let of_list ~dummy xs =
  Ring.create ~name:"Varray" ~noun:"vector"
    ~stale:
      "vector iterator used after an invalidating mutation \
       (push_back/erase/insert)"
    ~dummy xs

let create ~dummy () = of_list ~dummy []
let of_array ~dummy arr = of_list ~dummy (Array.to_list arr)
let capacity t = Array.length t.data

let clear t =
  t.len <- 0;
  t.version <- t.version + 1

(* Index of an iterator into this vector; raises if foreign or stale. *)
let index_of t it =
  match Iter.position (Lazy.force t.ops) it with
  | Some i -> i
  | None -> invalid_arg "Varray.index_of: foreign iterator"

(* Erase the element at [it]; like std::vector::erase this shifts the tail
   left and invalidates all iterators. Returns an iterator to the element
   after the erased one (in the new version). *)
let erase t it =
  let i = index_of t it in
  if i < 0 || i >= t.len then invalid_arg "Varray.erase: past-the-end";
  Array.blit t.data (i + 1) t.data i (t.len - i - 1);
  t.len <- t.len - 1;
  t.data.(t.len) <- t.dummy;
  t.version <- t.version + 1;
  iter_at t i

(* Insert [v] before [it]; invalidates all iterators; returns an iterator to
   the inserted element. *)
let insert t it v =
  let i = index_of t it in
  if i < 0 || i > t.len then invalid_arg "Varray.insert: bad position";
  reserve t (t.len + 1);
  Array.blit t.data i t.data (i + 1) (t.len - i);
  t.data.(i) <- v;
  t.len <- t.len + 1;
  t.version <- t.version + 1;
  iter_at t i

let pp pp_elem ppf t =
  Fmt.pf ppf "[|%a|]" Fmt.(list ~sep:(any "; ") pp_elem) (to_list t)

(* A back-inserting output iterator: writing appends; remains usable
   across the container's own reallocations (it references the container,
   not a buffer position). *)
let back_inserter t = Iter.output_to (push_back t)
