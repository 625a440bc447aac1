(* Generic sequence algorithms over {!Iter.t} ranges [first, last).

   Every algorithm states its iterator-concept requirement and its
   complexity guarantee (the concept metadata lives in {!Decls}); the bodies
   only use operations of the stated category, which the test suite verifies
   by driving them with {!Iter.restrict}-ed and archetype iterators.

   Dispatch: [advance], [distance] and [sort] select implementations by
   iterator category — the paper's canonical example of concept-based
   overloading (Section 2.1). *)

(* O(1) for random access, O(n) walk otherwise. *)
let distance first last =
  match Iter.difference first last with
  | Some n -> n
  | None ->
    let rec go n it =
      if Iter.equal it last then n else go (n + 1) (Iter.step it)
    in
    go 0 first

(* O(1) for random access, O(n) steps otherwise; negative [n] requires
   bidirectional. *)
let advance it n =
  if Iter.category it = Iter.Random_access then Iter.jump it n
  else if n >= 0 then (
    let rec fwd it k = if k = 0 then it else fwd (Iter.step it) (k - 1) in
    fwd it n)
  else
    let rec bwd it k = if k = 0 then it else bwd (Iter.back it) (k + 1) in
    bwd it n

let for_each f (first, last) =
  let rec go it =
    if not (Iter.equal it last) then begin
      f (Iter.get it);
      go (Iter.step it)
    end
  in
  go first

(* Read, then step, as a single-pass stream needs (arguments are
   evaluated right to left, so one call could not read first). *)
let fold f init (first, last) =
  let rec go acc it =
    if Iter.equal it last then acc
    else
      let x = Iter.get it in
      let next = Iter.step it in
      go (f acc x) next
  in
  go init first

let accumulate ~op ~init range = fold op init range

let find_if p (first, last) =
  let rec go it =
    if Iter.equal it last then it
    else if p (Iter.get it) then it
    else go (Iter.step it)
  in
  go first

let find ~eq v range = find_if (fun x -> eq x v) range

let count_if p range = fold (fun n x -> if p x then n + 1 else n) 0 range
let count ~eq v range = count_if (fun x -> eq x v) range

let all_of p range = fold (fun acc x -> acc && p x) true range
let any_of p range = fold (fun acc x -> acc || p x) false range
let none_of p range = not (any_of p range)

(* First position whose element equals its successor; requires Forward
   (keeps a trailing copy). *)
let adjacent_find ~eq (first, last) =
  if Iter.equal first last then last
  else
    let rec go prev it =
      if Iter.equal it last then last
      else if eq (Iter.get prev) (Iter.get it) then prev
      else go it (Iter.step it)
    in
    go first (Iter.step first)

(* Generalised inner product over two ranges (stops at the shorter). *)
let inner_product ~add ~mul ~init (f1, l1) (f2, l2) =
  let rec go acc a b =
    if Iter.equal a l1 || Iter.equal b l2 then acc
    else
      let x = Iter.get a and y = Iter.get b in
      let a = Iter.step a and b = Iter.step b in
      go (add acc (mul x y)) a b
  in
  go init f1 f2

let replace_if p ~with_ (first, last) =
  let rec go it =
    if not (Iter.equal it last) then begin
      if p (Iter.get it) then Iter.set it with_;
      go (Iter.step it)
    end
  in
  go first

let generate f (first, last) =
  let rec go it =
    if not (Iter.equal it last) then begin
      Iter.set it (f ());
      go (Iter.step it)
    end
  in
  go first

let iota ~start (first, last) =
  let counter = ref (start - 1) in
  generate
    (fun () ->
      incr counter;
      !counter)
    (first, last)

let is_partitioned p range =
  (* all p-elements precede all non-p elements *)
  let seen_false = ref false in
  all_of
    (fun x ->
      if p x then not !seen_false
      else begin
        seen_false := true;
        true
      end)
    range

let equal_ranges ~eq (f1, l1) (f2, l2) =
  let rec go a b =
    match Iter.equal a l1, Iter.equal b l2 with
    | true, true -> true
    | false, false ->
      eq (Iter.get a) (Iter.get b) && go (Iter.step a) (Iter.step b)
    | _ -> false
  in
  go f1 f2

let lexicographic_lt ~lt (f1, l1) (f2, l2) =
  let rec go a b =
    if Iter.equal b l2 then false
    else if Iter.equal a l1 then true
    else
      let x = Iter.get a and y = Iter.get b in
      if lt x y then true
      else if lt y x then false
      else go (Iter.step a) (Iter.step b)
  in
  go f1 f2

(* Copy [first,last) through output iterator [dst]; returns the final dst. *)
let copy (first, last) dst =
  let rec go src dst =
    if Iter.equal src last then dst
    else begin
      Iter.set dst (Iter.get src);
      go (Iter.step src) (Iter.step dst)
    end
  in
  go first dst

let transform f (first, last) dst =
  let rec go src dst =
    if Iter.equal src last then dst
    else begin
      Iter.set dst (f (Iter.get src));
      go (Iter.step src) (Iter.step dst)
    end
  in
  go first dst

let fill v (first, last) =
  let rec go it =
    if not (Iter.equal it last) then begin
      Iter.set it v;
      go (Iter.step it)
    end
  in
  go first

(* Requires ForwardIterator: keeps a saved copy of the best position, i.e.
   multipass. Running it on an input-iterator archetype raises
   Multipass_violation — the paper's Section 3.1 example. *)
let max_element ~lt (first, last) =
  if Iter.equal first last then last
  else
    let rec go best it =
      if Iter.equal it last then best
      else
        let best = if lt (Iter.get best) (Iter.get it) then it else best in
        go best (Iter.step it)
    in
    go first (Iter.step first)

let min_element ~lt range = max_element ~lt:(fun a b -> lt b a) range

let swap_values a b =
  let va = Iter.get a and vb = Iter.get b in
  Iter.set a vb;
  Iter.set b va

(* BidirectionalIterator required. *)
let reverse (first, last) =
  let rec go f l =
    if Iter.equal f l then ()
    else
      let l' = Iter.back l in
      if Iter.equal f l' then ()
      else begin
        swap_values f l';
        go (Iter.step f) l'
      end
  in
  go first last

(* Forward-iterator rotate (the SGI STL cycle-swapping algorithm). Returns
   the new position of the element formerly at [first]. *)
let rotate (first, middle, last) =
  if Iter.equal first middle then last
  else if Iter.equal middle last then first
  else begin
    let f = ref first and m = ref middle and next = ref middle in
    (* phase 1: swap until the first block is consumed once *)
    let continue = ref true in
    while !continue do
      swap_values !f !next;
      f := Iter.step !f;
      next := Iter.step !next;
      if Iter.equal !f !m then m := !next;
      if Iter.equal !next last then continue := false
    done;
    let result = !f in
    (* phase 2: rotate the remainder *)
    next := !m;
    while not (Iter.equal !next last) do
      swap_values !f !next;
      f := Iter.step !f;
      next := Iter.step !next;
      if Iter.equal !f !m then m := !next
      else if Iter.equal !next last then next := !m
    done;
    result
  end

(* Compact adjacent duplicates; returns the new logical end. *)
let unique ~eq (first, last) =
  if Iter.equal first last then last
  else
    let rec go write it =
      if Iter.equal it last then Iter.step write
      else if eq (Iter.get write) (Iter.get it) then go write (Iter.step it)
      else begin
        let write = Iter.step write in
        if not (Iter.equal write it) then Iter.set write (Iter.get it);
        go write (Iter.step it)
      end
    in
    go first (Iter.step first)

(* Keep elements not satisfying [p]; returns the new logical end. *)
let remove_if p (first, last) =
  let rec go write it =
    if Iter.equal it last then write
    else
      let v = Iter.get it in
      if p v then go write (Iter.step it)
      else begin
        if not (Iter.equal write it) then Iter.set write v;
        go (Iter.step write) (Iter.step it)
      end
  in
  go first first

let remove ~eq v range = remove_if (fun x -> eq x v) range

(* Forward-iterator partition; returns the partition point (first element
   not satisfying [p]). Not stable. *)
let partition p (first, last) =
  let rec skip it =
    if Iter.equal it last then it
    else if p (Iter.get it) then skip (Iter.step it)
    else it
  in
  let bound = skip first in
  let rec go bound it =
    if Iter.equal it last then bound
    else if p (Iter.get it) then begin
      swap_values bound it;
      go (Iter.step bound) (Iter.step it)
    end
    else go bound (Iter.step it)
  in
  if Iter.equal bound last then bound else go bound (Iter.step bound)

let is_sorted ~lt (first, last) =
  if Iter.equal first last then true
  else
    let rec go prev it =
      if Iter.equal it last then true
      else
        let v = Iter.get it in
        if lt v prev then false else go v (Iter.step it)
    in
    (* read before stepping: arguments evaluate right to left, and an
       input iterator cannot re-read a position it has stepped past *)
    let v = Iter.get first in
    go v (Iter.step first)

(* Binary search trio: O(log n) comparisons for any forward iterator
   (O(log n) steps only for random access; O(n) steps otherwise — the
   complexity-guarantee distinction the taxonomy records). *)
let lower_bound ~lt v (first, last) =
  let rec go first len =
    if len = 0 then first
    else
      let half = len / 2 in
      let mid = advance first half in
      if lt (Iter.get mid) v then go (Iter.step mid) (len - half - 1)
      else go first half
  in
  go first (distance first last)

let upper_bound ~lt v (first, last) =
  let rec go first len =
    if len = 0 then first
    else
      let half = len / 2 in
      let mid = advance first half in
      if lt v (Iter.get mid) then go first half
      else go (Iter.step mid) (len - half - 1)
  in
  go first (distance first last)

let binary_search ~lt v range =
  let _, last = range in
  let it = lower_bound ~lt v range in
  (not (Iter.equal it last)) && not (lt v (Iter.get it))

(* The subrange of elements equivalent to [v] in a sorted range. *)
let equal_range ~lt v range = (lower_bound ~lt v range, upper_bound ~lt v range)

(* Merge two sorted ranges through an output iterator; stable. *)
let merge ~lt (f1, l1) (f2, l2) dst =
  let rec go a b dst =
    match Iter.equal a l1, Iter.equal b l2 with
    | true, true -> dst
    | true, false ->
      Iter.set dst (Iter.get b);
      go a (Iter.step b) (Iter.step dst)
    | false, true ->
      Iter.set dst (Iter.get a);
      go (Iter.step a) b (Iter.step dst)
    | false, false ->
      let x = Iter.get a and y = Iter.get b in
      if lt y x then begin
        Iter.set dst y;
        go a (Iter.step b) (Iter.step dst)
      end
      else begin
        Iter.set dst x;
        go (Iter.step a) b (Iter.step dst)
      end
  in
  go f1 f2 dst

(* ------------------------------------------------------------------ *)
(* Sorted-range set operations (the STL set algebra)                   *)
(* ------------------------------------------------------------------ *)

(* [includes]: is sorted range 2 a subsequence (as a multiset) of sorted
   range 1? O(n1 + n2) comparisons. *)
let includes ~lt (f1, l1) (f2, l2) =
  let rec go a b =
    if Iter.equal b l2 then true
    else if Iter.equal a l1 then false
    else
      let x = Iter.get a and y = Iter.get b in
      if lt y x then false
      else if lt x y then go (Iter.step a) b
      else go (Iter.step a) (Iter.step b)
  in
  go f1 f2

(* Union of two sorted multisets through an output iterator; an element
   appearing m times in one input and n times in the other appears
   max(m, n) times in the output. *)
let set_union ~lt (f1, l1) (f2, l2) dst =
  let rec go a b dst =
    match Iter.equal a l1, Iter.equal b l2 with
    | true, true -> dst
    | true, false ->
      Iter.set dst (Iter.get b);
      go a (Iter.step b) (Iter.step dst)
    | false, true ->
      Iter.set dst (Iter.get a);
      go (Iter.step a) b (Iter.step dst)
    | false, false ->
      let x = Iter.get a and y = Iter.get b in
      if lt x y then begin
        Iter.set dst x;
        go (Iter.step a) b (Iter.step dst)
      end
      else if lt y x then begin
        Iter.set dst y;
        go a (Iter.step b) (Iter.step dst)
      end
      else begin
        Iter.set dst x;
        go (Iter.step a) (Iter.step b) (Iter.step dst)
      end
  in
  go f1 f2 dst

(* Intersection: min(m, n) copies of each common element. *)
let set_intersection ~lt (f1, l1) (f2, l2) dst =
  let rec go a b dst =
    if Iter.equal a l1 || Iter.equal b l2 then dst
    else
      let x = Iter.get a and y = Iter.get b in
      if lt x y then go (Iter.step a) b dst
      else if lt y x then go a (Iter.step b) dst
      else begin
        Iter.set dst x;
        go (Iter.step a) (Iter.step b) (Iter.step dst)
      end
  in
  go f1 f2 dst

(* Difference: elements of range 1 not matched by range 2. *)
let set_difference ~lt (f1, l1) (f2, l2) dst =
  let rec go a b dst =
    if Iter.equal a l1 then dst
    else if Iter.equal b l2 then begin
      Iter.set dst (Iter.get a);
      go (Iter.step a) b (Iter.step dst)
    end
    else
      let x = Iter.get a and y = Iter.get b in
      if lt x y then begin
        Iter.set dst x;
        go (Iter.step a) b (Iter.step dst)
      end
      else if lt y x then go a (Iter.step b) dst
      else go (Iter.step a) (Iter.step b) dst
  in
  go f1 f2 dst

(* ------------------------------------------------------------------ *)
(* Sorting with concept-based dispatch                                 *)
(* ------------------------------------------------------------------ *)

(* Access by offset from [first]: O(1) for random access, by stepping
   otherwise. *)
let indexed first =
  if Iter.category first = Iter.Random_access then
    (Iter.get_at first, Iter.set_at first)
  else
    ( (fun k -> Iter.get (advance first k)),
      fun k v -> Iter.set (advance first k) v )

(* In-place introsort for random-access ranges: quicksort with
   median-of-three pivots, falling back to heapsort past a depth limit and
   insertion sort on small subranges. All access goes through the iterator
   interface. *)
module Introsort = struct
  let small = 16

  (* Core: sorts positions [0, n) through constant-time [get]/[set]. *)
  let sort_indexed ~lt ~get ~set n =
    let swap i j =
      let t = get i in
      set i (get j);
      set j t
    in
    let insertion lo hi =
      for i = lo + 1 to hi do
        let v = get i in
        let j = ref (i - 1) in
        while !j >= lo && lt v (get !j) do
          set (!j + 1) (get !j);
          decr j
        done;
        set (!j + 1) v
      done
    in
    let heapsort lo hi =
      let n = hi - lo + 1 in
      let hget i = get (lo + i) in
      let hswap i j = swap (lo + i) (lo + j) in
      let rec sift i n =
        let l = (2 * i) + 1 and r = (2 * i) + 2 in
        let largest = ref i in
        if l < n && lt (hget !largest) (hget l) then largest := l;
        if r < n && lt (hget !largest) (hget r) then largest := r;
        if !largest <> i then begin
          hswap i !largest;
          sift !largest n
        end
      in
      for i = (n / 2) - 1 downto 0 do
        sift i n
      done;
      for i = n - 1 downto 1 do
        hswap 0 i;
        sift 0 i
      done
    in
    let rec go lo hi depth =
      if hi - lo + 1 > small then
        if depth = 0 then heapsort lo hi
        else begin
          (* median of three *)
          let mid = lo + ((hi - lo) / 2) in
          let a = get lo and b = get mid and c = get hi in
          let pivot =
            if lt a b then if lt b c then b else if lt a c then c else a
            else if lt a c then a
            else if lt b c then c
            else b
          in
          let i = ref lo and j = ref hi in
          while !i <= !j do
            while lt (get !i) pivot do incr i done;
            while lt pivot (get !j) do decr j done;
            if !i <= !j then begin
              swap !i !j;
              incr i;
              decr j
            end
          done;
          go lo !j (depth - 1);
          go !i hi (depth - 1)
        end
    in
    if n > 1 then begin
      let depth = 2 * int_of_float (Float.log2 (float_of_int (max n 2))) in
      go 0 (n - 1) depth;
      insertion 0 (n - 1)
    end

  let sort ~lt first n =
    let get, set = indexed first in
    sort_indexed ~lt ~get ~set n
end

(* Stable merge sort for forward ranges: bottom-up on a working list of
   values, written back through the iterators. This is the "default
   algorithm" a linked list gets (Section 2.1). *)
let forward_sort ~lt (first, last) =
  let values = List.rev (fold (fun acc v -> v :: acc) [] (first, last)) in
  let cmp a b = if lt a b then -1 else if lt b a then 1 else 0 in
  let sorted = List.stable_sort cmp values in
  let rec write it = function
    | [] -> ()
    | v :: rest ->
      Iter.set it v;
      write (Iter.step it) rest
  in
  write first sorted

type sort_algorithm = Introsort_ra | Mergesort_fwd

let sort_algorithm_for (cat : Iter.category) =
  match cat with
  | Iter.Random_access -> Introsort_ra
  | Iter.Forward | Iter.Bidirectional -> Mergesort_fwd
  | Iter.Input | Iter.Output ->
    raise
      (Iter.Category_violation
         "sort requires at least ForwardIterator (with writability)")

let sort_algorithm_name = function
  | Introsort_ra -> "introsort (random access)"
  | Mergesort_fwd -> "mergesort (forward)"

(* Concept-dispatched sort: picks introsort for random-access iterators and
   mergesort otherwise, like std::sort vs list::sort selected by concept. *)
let sort ~lt ((first, last) as range) =
  match sort_algorithm_for (Iter.category first) with
  | Introsort_ra ->
    let n = distance first last in
    if n > 1 then Introsort.sort ~lt first n
  | Mergesort_fwd -> forward_sort ~lt range

let stable_sort ~lt range = forward_sort ~lt range

(* Quickselect: after the call the n-th position holds the element that
   would be there if the range were sorted. Random access only. *)
let nth_element ~lt (first, last) n =
  let len = distance first last in
  if n < 0 || n >= len then invalid_arg "nth_element: index out of range";
  let get, set = indexed first in
  let rec go lo hi =
    if lo < hi then begin
      let pivot = get (lo + ((hi - lo) / 2)) in
      let i = ref lo and j = ref hi in
      while !i <= !j do
        while lt (get !i) pivot do incr i done;
        while lt pivot (get !j) do decr j done;
        if !i <= !j then begin
          let t = get !i in
          set !i (get !j);
          set !j t;
          incr i;
          decr j
        end
      done;
      if n <= !j then go lo !j else if n >= !i then go !i hi
    end
  in
  go 0 (len - 1)
