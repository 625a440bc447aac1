(* Tests for gp_sequence: containers, checked iterators (invalidation,
   singularity, multipass), and every generic algorithm against reference
   semantics, driven across iterator categories. *)

open Gp_sequence

let qtest = QCheck_alcotest.to_alcotest
let lt = ( < )
let eq = Int.equal

let varray_of l = Varray.of_list ~dummy:0 l
let range_of_varray a = (Varray.begin_ a, Varray.end_ a)
let range_of_dlist l = (Dlist.begin_ l, Dlist.end_ l)

let small_list = QCheck.list_of_size (QCheck.Gen.int_range 0 40) QCheck.small_int

(* ------------------------------------------------------------------ *)
(* Containers                                                          *)
(* ------------------------------------------------------------------ *)

let test_varray_basics () =
  let a = varray_of [ 1; 2; 3 ] in
  Alcotest.(check int) "length" 3 (Varray.length a);
  Varray.push_back a 4;
  Alcotest.(check (list int)) "push_back" [ 1; 2; 3; 4 ] (Varray.to_list a);
  Varray.pop_back a;
  Varray.set a 0 9;
  Alcotest.(check (list int)) "set" [ 9; 2; 3 ] (Varray.to_list a);
  Alcotest.check_raises "oob get"
    (Invalid_argument "Varray.get: index out of bounds") (fun () ->
      ignore (Varray.get a 3))

let test_varray_growth () =
  let a = Varray.create ~dummy:0 () in
  for i = 0 to 999 do
    Varray.push_back a i
  done;
  Alcotest.(check int) "length 1000" 1000 (Varray.length a);
  Alcotest.(check int) "element 537" 537 (Varray.get a 537)

let test_varray_erase_insert () =
  let a = varray_of [ 1; 2; 3; 4 ] in
  let it = Algorithms.advance (Varray.begin_ a) 1 in
  let it' = Varray.erase a it in
  Alcotest.(check (list int)) "erase middle" [ 1; 3; 4 ] (Varray.to_list a);
  Alcotest.(check int) "returned iter points at successor" 3 (Iter.get it');
  let _ = Varray.insert a it' 99 in
  Alcotest.(check (list int)) "insert" [ 1; 99; 3; 4 ] (Varray.to_list a)

let test_dlist_basics () =
  let l = Dlist.of_list [ 1; 2; 3 ] in
  Dlist.push_front l 0;
  Dlist.push_back l 4;
  Alcotest.(check (list int)) "push both ends" [ 0; 1; 2; 3; 4 ]
    (Dlist.to_list l);
  Alcotest.(check int) "length" 5 (Dlist.length l)

let test_dlist_erase_stability () =
  let l = Dlist.of_list [ 1; 2; 3 ] in
  let first = Dlist.begin_ l in
  let second = Iter.step first in
  let third = Iter.step second in
  let after = Dlist.erase l second in
  (* list erase invalidates ONLY the erased node's iterators *)
  Alcotest.(check int) "first still valid" 1 (Iter.get first);
  Alcotest.(check int) "third still valid" 3 (Iter.get third);
  Alcotest.(check int) "returned successor" 3 (Iter.get after);
  Alcotest.(check bool) "erased iterator invalidated" true
    (match Iter.get second with
    | _ -> false
    | exception Iter.Invalidated _ -> true)

let test_deque_basics () =
  let d = Deque.create ~dummy:0 () in
  for i = 1 to 5 do
    Deque.push_back d i
  done;
  for i = 1 to 5 do
    Deque.push_front d (-i)
  done;
  Alcotest.(check (list int)) "contents" [ -5; -4; -3; -2; -1; 1; 2; 3; 4; 5 ]
    (Deque.to_list d);
  Deque.pop_front d;
  Deque.pop_back d;
  Alcotest.(check (list int)) "after pops" [ -4; -3; -2; -1; 1; 2; 3; 4 ]
    (Deque.to_list d)

let deque_ring_prop =
  qtest
    (QCheck.Test.make ~name:"deque = two-list reference" ~count:200
       (QCheck.list_of_size (QCheck.Gen.int_range 0 60)
          (QCheck.int_range 0 5))
       (fun ops ->
         let d = Deque.create ~dummy:0 () in
         let reference = ref [] in
         List.iteri
           (fun i op ->
             match op with
             | 0 ->
               Deque.push_back d i;
               reference := !reference @ [ i ]
             | 1 ->
               Deque.push_front d i;
               reference := i :: !reference
             | 2 when !reference <> [] ->
               Deque.pop_front d;
               reference := List.tl !reference
             | 3 when !reference <> [] ->
               Deque.pop_back d;
               reference := List.rev (List.tl (List.rev !reference))
             | _ -> ())
           ops;
         Deque.to_list d = !reference))

(* ------------------------------------------------------------------ *)
(* Checked iterators                                                   *)
(* ------------------------------------------------------------------ *)

let test_vector_iterator_invalidation () =
  let a = varray_of [ 1; 2; 3 ] in
  let it = Varray.begin_ a in
  Varray.push_back a 4;
  Alcotest.(check bool) "deref after push_back raises Invalidated" true
    (match Iter.get it with
    | _ -> false
    | exception Iter.Invalidated _ -> true)

(* The Fig. 4 bug, reproduced dynamically: erase invalidates, the loop then
   increments/dereferences the dead iterator. *)
let test_fig4_dynamic () =
  let grades = varray_of [ 55; 90; 42; 71 ] in
  let fgrade g = g < 60 in
  let raised = ref false in
  (try
     let it = ref (Varray.begin_ grades) in
     while not (Iter.equal !it (Varray.end_ grades)) do
       if fgrade (Iter.get !it) then begin
         ignore (Varray.erase grades !it);
         (* BUG (as in the textbook example): keep using the old iterator *)
         it := Iter.step !it
       end
       else it := Iter.step !it
     done
   with Iter.Invalidated _ -> raised := true);
  Alcotest.(check bool) "invalidation caught at runtime" true !raised

let test_singular_iterator () =
  let s : int Iter.t = Iter.singular () in
  Alcotest.(check bool) "is singular" true (Iter.is_singular s);
  Alcotest.(check bool) "deref raises" true
    (match Iter.get s with _ -> false | exception Iter.Singular _ -> true)

let test_past_end_deref () =
  let a = varray_of [ 1 ] in
  let e = Varray.end_ a in
  Alcotest.(check bool) "deref of end raises" true
    (match Iter.get e with _ -> false | exception Iter.Singular _ -> true)

let test_category_violation () =
  let l = Dlist.of_list [ 1; 2 ] in
  let it = Dlist.begin_ l in
  Alcotest.(check bool) "list iterator has no jump" true
    (match Iter.jump it 1 with
    | _ -> false
    | exception Iter.Category_violation _ -> true)

let test_restrict () =
  let a = varray_of [ 1; 2; 3 ] in
  let it = Iter.restrict Iter.Forward (Varray.begin_ a) in
  Alcotest.(check int) "restricted still reads" 1 (Iter.get it);
  Alcotest.(check bool) "restricted step keeps category" true
    (Iter.category (Iter.step it) = Iter.Forward);
  Alcotest.(check bool) "no back" true
    (match Iter.back it with
    | _ -> false
    | exception Iter.Category_violation _ -> true);
  Alcotest.check_raises "cannot strengthen"
    (Invalid_argument "Iter.restrict: cannot strengthen an iterator")
    (fun () -> ignore (Iter.restrict Iter.Random_access it))

let test_input_stream_multipass_violation () =
  let first, _last = Iter.of_list [ 1; 2; 3 ] in
  let copy = first in
  let _ = Iter.step first in
  Alcotest.(check bool) "re-reading consumed position raises" true
    (match Iter.get copy with
    | _ -> false
    | exception Iter.Multipass_violation _ -> true)

(* max_element on a true input iterator violates single-pass: the paper's
   archetype experiment (Section 3.1), dynamically. *)
let test_max_element_needs_multipass () =
  let first, last = Iter.of_list [ 3; 1; 4; 1; 5 ] in
  Alcotest.(check bool) "max_element on input iterator trips archetype" true
    (match Algorithms.max_element ~lt (first, last) with
    | _ -> false
    | exception Iter.Multipass_violation _ -> true)

(* The Input archetype over a generator: a fold dereferences and steps
   each element exactly once and asks the generator only for positions
   up to the end; afterwards the consumed positions are gone. Algorithms
   that need Forward or better fail on a stream with these exceptions,
   constructor and message. *)
let test_stream_single_pass () =
  let xs = [| 3; 1; 4; 1; 5 |] in
  let asked = ref [] in
  let stream () =
    Iter.of_stream (fun i ->
        asked := i :: !asked;
        if i < Array.length xs then Some xs.(i) else None)
  in
  let c = Iter.counters () in
  let first, last = stream () in
  let sum =
    Algorithms.fold ( + ) 0 (Iter.counting c first, Iter.counting c last)
  in
  Alcotest.(check int) "fold sums the stream" 14 sum;
  Alcotest.(check int) "each element read once" 5 c.Iter.derefs;
  Alcotest.(check int) "each element stepped once" 5 c.Iter.steps;
  Alcotest.(check bool) "the generator is asked for 0 .. n only" true
    (List.for_all (fun i -> i >= 0 && i <= Array.length xs) !asked);
  let outcome f =
    match f () with
    | () -> "ok"
    | exception Iter.Category_violation m -> "Category_violation " ^ m
    | exception Iter.Multipass_violation m -> "Multipass_violation " ^ m
    | exception Iter.Singular m -> "Singular " ^ m
  in
  let reread k =
    Printf.sprintf
      "Multipass_violation input iterator re-reads position 0 after the \
       stream advanced to %d (single-pass)"
      k
  in
  List.iter
    (fun (what, expected, f) ->
      Alcotest.(check string) what expected (outcome f))
    [ ("re-read after the fold", reread 5, fun () -> ignore (Iter.get first));
      ( "max_element", reread 1,
        fun () -> ignore (Algorithms.max_element ~lt (stream ())) );
      ( "adjacent_find", reread 1,
        fun () -> ignore (Algorithms.adjacent_find ~eq:( = ) (stream ())) );
      ( "is_sorted", "ok",
        fun () ->
          Alcotest.(check bool) "is_sorted reads each element once" false
            (Algorithms.is_sorted ~lt (stream ())) );
      ( "sort",
        "Category_violation sort requires at least ForwardIterator (with \
         writability)",
        fun () -> Algorithms.sort ~lt (stream ()) );
      ( "reverse",
        "Category_violation InputIterator does not support stepping back",
        fun () -> Algorithms.reverse (stream ()) );
      ( "past-the-end read", "Singular dereference of past-the-end iterator",
        fun () -> ignore (Iter.get (snd (stream ()))) ) ]

let test_max_element_ok_on_forward () =
  let a = varray_of [ 3; 1; 4; 1; 5 ] in
  let it = Algorithms.max_element ~lt (range_of_varray a) in
  Alcotest.(check int) "finds max" 5 (Iter.get it)

(* Decrementing a list's begin raises, as on a vector, instead of
   wrapping round to end; on a one-element list too. *)
let test_dlist_back_from_begin () =
  let raises it =
    match Iter.back it with
    | _ -> false
    | exception Iter.Singular _ -> true
  in
  Alcotest.(check bool) "back from begin" true
    (raises (Dlist.begin_ (Dlist.of_list [ 1; 2; 3 ])));
  Alcotest.(check bool) "back from the only element" true
    (raises (Dlist.begin_ (Dlist.of_list [ 1 ])));
  let l = Dlist.of_list [ 1; 2 ] in
  Alcotest.(check int) "back from end is the last element" 2
    (Iter.get (Iter.back (Dlist.end_ l)))

let invalidated f =
  match f () with _ -> false | exception Iter.Invalidated _ -> true

(* Mutating through a stale iterator raises Invalidated, as every other use
   of one does; a foreign iterator keeps its Invalid_argument. *)
let test_mutation_through_stale () =
  let a = varray_of [ 1; 2; 3 ] in
  let second = Iter.step (Varray.begin_ a) in
  Varray.push_back a 4;
  Alcotest.(check bool) "vector erase" true
    (invalidated (fun () -> Varray.erase a second));
  Alcotest.(check bool) "vector insert" true
    (invalidated (fun () -> Varray.insert a second 9));
  Alcotest.(check (list int)) "vector untouched" [ 1; 2; 3; 4 ]
    (Varray.to_list a);
  Alcotest.check_raises "vector foreign"
    (Invalid_argument "Varray.index_of: foreign iterator") (fun () ->
      ignore (Varray.erase a (Varray.begin_ (varray_of [ 1 ]))));
  let l = Dlist.of_list [ 1; 2; 3 ] in
  let second = Iter.step (Dlist.begin_ l) in
  ignore (Dlist.erase l second);
  Alcotest.(check bool) "list erase of an erased node" true
    (invalidated (fun () -> Dlist.erase l second));
  Alcotest.(check bool) "list insert at an erased node" true
    (invalidated (fun () -> Dlist.insert l second 9));
  Alcotest.(check (list int)) "list untouched" [ 1; 3 ] (Dlist.to_list l);
  Alcotest.check_raises "list foreign"
    (Invalid_argument "Dlist.node_of: foreign iterator") (fun () ->
      ignore (Dlist.erase l (Dlist.begin_ (Dlist.of_list [ 1 ]))))

(* Random walks over every container kind against a list reference: each
   move either agrees with the reference or raises the exception the
   reference names. [Push] appends through the container, which
   invalidates a vector's or deque's iterators and none of a list's. *)
type move = Step | Back | Jump of int | Get | Set of int | Push of int

let pp_move = function
  | Step -> "step"
  | Back -> "back"
  | Jump k -> Printf.sprintf "jump %d" k
  | Get -> "get"
  | Set v -> Printf.sprintf "set %d" v
  | Push v -> Printf.sprintf "push %d" v

let move_arb =
  QCheck.map
    ~rev:(function
      | Step -> (0, 0)
      | Back -> (1, 0)
      | Jump k -> (2, k + 4)
      | Get -> (3, 0)
      | Set v -> (4, v)
      | Push v -> (5, v))
    (fun (k, x) ->
      match k with
      | 0 -> Step
      | 1 -> Back
      | 2 -> Jump (x - 4)
      | 3 -> Get
      | 4 -> Set x
      | _ -> Push x)
    (QCheck.pair (Bounded.int_range 0 5) (Bounded.int_range 0 8))

(* a fresh container over a list, walked from [it0] *)
type walker = {
  it0 : int Iter.t;
  at : int -> int Iter.t; (* a fresh iterator at an index *)
  push : int -> unit;
  contents : unit -> int list;
  tally : Iter.counters option;
}

(* each kind: its name, its iterators' category, whether a push keeps
   them valid, and how to make a walker *)
let walk_kinds =
  let of_varray ?(wrap = Fun.id) ?tally xs =
    let a = varray_of xs in
    let at p = Algorithms.advance (Varray.begin_ a) p in
    { it0 = wrap (Varray.begin_ a); at; push = Varray.push_back a;
      contents = (fun () -> Varray.to_list a); tally }
  in
  let of_deque ?(wrap = Fun.id) xs =
    let d = Deque.of_list ~dummy:0 xs in
    let at p = Algorithms.advance (Deque.begin_ d) p in
    { it0 = wrap (Deque.begin_ d); at; push = Deque.push_back d;
      contents = (fun () -> Deque.to_list d); tally = None }
  in
  let of_dlist ?(wrap = Fun.id) ?tally xs =
    let l = Dlist.of_list xs in
    let at p = Algorithms.advance (Dlist.begin_ l) p in
    { it0 = wrap (Dlist.begin_ l); at; push = Dlist.push_back l;
      contents = (fun () -> Dlist.to_list l); tally }
  in
  [ ("vector", Iter.Random_access, false, fun xs -> of_varray xs);
    ("deque", Iter.Random_access, false, fun xs -> of_deque xs);
    ("list", Iter.Bidirectional, true, fun xs -> of_dlist xs);
    ( "vector restricted to Forward", Iter.Forward, false,
      fun xs -> of_varray ~wrap:(Iter.restrict Iter.Forward) xs );
    ( "deque restricted to Bidirectional", Iter.Bidirectional, false,
      fun xs -> of_deque ~wrap:(Iter.restrict Iter.Bidirectional) xs );
    ( "list restricted to Forward", Iter.Forward, true,
      fun xs -> of_dlist ~wrap:(Iter.restrict Iter.Forward) xs );
    ( "counting vector", Iter.Random_access, false,
      fun xs ->
        let c = Iter.counters () in
        of_varray ~wrap:(Iter.counting c) ~tally:c xs );
    ( "counting list", Iter.Bidirectional, true,
      fun xs ->
        let c = Iter.counters () in
        of_dlist ~wrap:(Iter.counting c) ~tally:c xs ) ]

let exn_name = function
  | Iter.Singular _ -> "Singular"
  | Iter.Invalidated _ -> "Invalidated"
  | Iter.Category_violation _ -> "Category_violation"
  | Iter.Multipass_violation _ -> "Multipass_violation"
  | e -> Printexc.to_string e

(* Run one walk on one kind; [Error] describes the first disagreement. *)
let run_walk (name, cat, linked, make) xs moves =
  let w = make xs in
  let reference = ref (Array.of_list xs) in
  let n () = Array.length !reference in
  let ra = cat = Iter.Random_access in
  let bidi = Iter.rank cat >= Iter.rank Iter.Bidirectional in
  let derefs = ref 0 and steps = ref 0 in
  let rec go it p stale = function
    | [] ->
      let counted =
        match w.tally with
        | None -> true
        | Some c -> c.Iter.derefs = !derefs && c.Iter.steps = !steps
      in
      if w.contents () <> Array.to_list !reference then
        Error (name ^ ": contents differ")
      else if not counted then Error (name ^ ": counters differ")
      else Ok ()
    | move :: rest -> (
      let fail why =
        Error (Printf.sprintf "%s, %s: %s" name (pp_move move) why)
      in
      let guarded k = if stale then Error "Invalidated" else k in
      let in_range () = p < n () in
      (* the reference: the next index, or the exception constructor *)
      let expected =
        match move with
        | Step ->
          incr steps;
          guarded (if in_range () then Ok (p + 1) else Error "Singular")
        | Back when not bidi -> Error "Category_violation"
        | Back ->
          incr steps;
          guarded (if p > 0 then Ok (p - 1) else Error "Singular")
        | Jump _ when not ra -> Error "Category_violation"
        | Jump k ->
          incr steps;
          guarded
            (if p + k >= 0 && p + k <= n () then Ok (p + k)
             else Error "Singular")
        | Get ->
          incr derefs;
          guarded (if in_range () then Ok p else Error "Singular")
        | Set _ ->
          guarded (if in_range () then Ok p else Error "Singular")
        | Push _ -> Ok p
      in
      let actual =
        try
          match move with
          | Step -> Ok (Iter.step it)
          | Back -> Ok (Iter.back it)
          | Jump k -> Ok (Iter.jump it k)
          | Get ->
            let v = Iter.get it in
            if v = !reference.(p) then Ok it else Error "wrong value"
          | Set v ->
            Iter.set it v;
            !reference.(p) <- v;
            Ok it
          | Push v ->
            w.push v;
            reference := Array.append !reference [| v |];
            Ok it
        with e -> Error (exn_name e)
      in
      match (expected, actual, move) with
      | Ok _, Ok it', Push _ ->
        (* a list's end follows the new end; a vector's iterators die *)
        let p = if linked && p = n () - 1 then n () else p in
        go it' p (stale || not linked) rest
      | Ok p', Ok it', _ ->
        if Iter.equal it' (w.at p') then go it' p' stale rest
        else fail "lands on the wrong position"
      | Error e, Error a, _ when e = a -> go it p stale rest
      | Error e, Error a, _ ->
        fail (Printf.sprintf "raised %s, reference %s" a e)
      | Error e, Ok _, _ -> fail ("succeeded, reference raises " ^ e)
      | Ok _, Error a, _ -> fail ("raised " ^ a))
  in
  go w.it0 0 false moves

let walk_prop =
  qtest
    (QCheck.Test.make ~name:"random walks agree with a list reference"
       ~count:300
       (QCheck.pair
          (QCheck.list_of_size (QCheck.Gen.int_range 0 6)
             (Bounded.int_range 0 9))
          (QCheck.list_of_size (QCheck.Gen.int_range 0 24) move_arb))
       (fun (xs, moves) ->
         List.for_all
           (fun kind ->
             match run_walk kind xs moves with
             | Ok () -> true
             | Error why -> QCheck.Test.fail_report why)
           walk_kinds))

(* ------------------------------------------------------------------ *)
(* Algorithms vs reference semantics                                   *)
(* ------------------------------------------------------------------ *)

let test_distance_advance () =
  let a = varray_of [ 10; 20; 30; 40 ] in
  let first, last = range_of_varray a in
  Alcotest.(check int) "distance RA" 4 (Algorithms.distance first last);
  let l = Dlist.of_list [ 10; 20; 30; 40 ] in
  let f2, l2 = range_of_dlist l in
  Alcotest.(check int) "distance walk" 4 (Algorithms.distance f2 l2);
  Alcotest.(check int) "advance RA" 30 (Iter.get (Algorithms.advance first 2));
  Alcotest.(check int) "advance walk" 30 (Iter.get (Algorithms.advance f2 2));
  Alcotest.(check int) "advance negative (bidir)" 10
    (Iter.get (Algorithms.advance (Algorithms.advance f2 2) (-2)))

let test_find () =
  let a = varray_of [ 5; 7; 9 ] in
  let first, last = range_of_varray a in
  let it = Algorithms.find ~eq 7 (first, last) in
  Alcotest.(check int) "found" 7 (Iter.get it);
  let missing = Algorithms.find ~eq 8 (first, last) in
  Alcotest.(check bool) "not found = last" true (Iter.equal missing last)

let test_fold_count () =
  let a = varray_of [ 1; 2; 3; 4 ] in
  let r = range_of_varray a in
  Alcotest.(check int) "accumulate" 10
    (Algorithms.accumulate ~op:( + ) ~init:0 r);
  Alcotest.(check int) "count_if even" 2
    (Algorithms.count_if (fun x -> x mod 2 = 0) r)

let test_copy_transform () =
  let src = varray_of [ 1; 2; 3 ] in
  let dst = varray_of [ 0; 0; 0 ] in
  let _ = Algorithms.copy (range_of_varray src) (Varray.begin_ dst) in
  Alcotest.(check (list int)) "copy" [ 1; 2; 3 ] (Varray.to_list dst);
  let dst2 = varray_of [ 0; 0; 0 ] in
  let _ =
    Algorithms.transform (fun x -> x * 10) (range_of_varray src)
      (Varray.begin_ dst2)
  in
  Alcotest.(check (list int)) "transform" [ 10; 20; 30 ] (Varray.to_list dst2)

let test_equal_lexicographic () =
  let a = varray_of [ 1; 2; 3 ] and b = varray_of [ 1; 2; 3 ] in
  Alcotest.(check bool) "equal ranges" true
    (Algorithms.equal_ranges ~eq (range_of_varray a) (range_of_varray b));
  let c = varray_of [ 1; 2; 4 ] in
  Alcotest.(check bool) "lex lt" true
    (Algorithms.lexicographic_lt ~lt (range_of_varray a) (range_of_varray c));
  let d = varray_of [ 1; 2 ] in
  Alcotest.(check bool) "prefix lt" true
    (Algorithms.lexicographic_lt ~lt (range_of_varray d) (range_of_varray a))

let test_reverse_rotate () =
  let a = varray_of [ 1; 2; 3; 4; 5 ] in
  Algorithms.reverse (range_of_varray a);
  Alcotest.(check (list int)) "reverse" [ 5; 4; 3; 2; 1 ] (Varray.to_list a);
  let b = varray_of [ 1; 2; 3; 4; 5 ] in
  let mid = Algorithms.advance (Varray.begin_ b) 2 in
  let ret = Algorithms.rotate (Varray.begin_ b, mid, Varray.end_ b) in
  Alcotest.(check (list int)) "rotate" [ 3; 4; 5; 1; 2 ] (Varray.to_list b);
  Alcotest.(check int) "rotate return points at old first" 1 (Iter.get ret)

let test_unique_remove_partition () =
  let a = varray_of [ 1; 1; 2; 2; 2; 3; 1 ] in
  let e = Algorithms.unique ~eq (range_of_varray a) in
  let kept = Algorithms.distance (Varray.begin_ a) e in
  Alcotest.(check int) "unique keeps 4" 4 kept;
  Alcotest.(check (list int)) "unique prefix" [ 1; 2; 3; 1 ]
    (List.filteri (fun i _ -> i < 4) (Varray.to_list a));
  let b = varray_of [ 1; 2; 3; 4; 5; 6 ] in
  let e = Algorithms.remove_if (fun x -> x mod 2 = 0) (range_of_varray b) in
  let kept = Algorithms.distance (Varray.begin_ b) e in
  Alcotest.(check int) "remove keeps 3" 3 kept;
  let c = varray_of [ 1; 2; 3; 4; 5; 6 ] in
  let p = Algorithms.partition (fun x -> x mod 2 = 0) (range_of_varray c) in
  let front = Algorithms.distance (Varray.begin_ c) p in
  Alcotest.(check int) "partition point" 3 front;
  let all_even_front = ref true in
  for i = 0 to front - 1 do
    if Varray.get c i mod 2 <> 0 then all_even_front := false
  done;
  Alcotest.(check bool) "evens first" true !all_even_front

let test_binary_search_trio () =
  let a = varray_of [ 1; 3; 3; 5; 7 ] in
  let r = range_of_varray a in
  let lb = Algorithms.lower_bound ~lt 3 r in
  let ub = Algorithms.upper_bound ~lt 3 r in
  Alcotest.(check int) "lower_bound index" 1
    (Algorithms.distance (Varray.begin_ a) lb);
  Alcotest.(check int) "upper_bound index" 3
    (Algorithms.distance (Varray.begin_ a) ub);
  Alcotest.(check bool) "binary_search hit" true
    (Algorithms.binary_search ~lt 5 r);
  Alcotest.(check bool) "binary_search miss" false
    (Algorithms.binary_search ~lt 4 r)

let test_merge () =
  let a = varray_of [ 1; 3; 5 ] and b = varray_of [ 2; 3; 6 ] in
  let out = varray_of [ 0; 0; 0; 0; 0; 0 ] in
  let _ =
    Algorithms.merge ~lt (range_of_varray a) (range_of_varray b)
      (Varray.begin_ out)
  in
  Alcotest.(check (list int)) "merge" [ 1; 2; 3; 3; 5; 6 ]
    (Varray.to_list out)

let test_sort_dispatch_choice () =
  Alcotest.(check string) "RA picks introsort" "introsort (random access)"
    (Algorithms.sort_algorithm_name
       (Algorithms.sort_algorithm_for Iter.Random_access));
  Alcotest.(check string) "forward picks mergesort" "mergesort (forward)"
    (Algorithms.sort_algorithm_name
       (Algorithms.sort_algorithm_for Iter.Forward));
  Alcotest.(check bool) "input rejected" true
    (match Algorithms.sort_algorithm_for Iter.Input with
    | _ -> false
    | exception Iter.Category_violation _ -> true)

(* Property: sort on every container/category agrees with List.sort. *)
let sort_props =
  [
    qtest
      (QCheck.Test.make ~name:"introsort sorts (vector)" ~count:200 small_list
         (fun l ->
           let a = varray_of l in
           Algorithms.sort ~lt (range_of_varray a);
           Varray.to_list a = List.sort Stdlib.compare l));
    qtest
      (QCheck.Test.make ~name:"mergesort sorts (list)" ~count:200 small_list
         (fun l ->
           let d = Dlist.of_list l in
           Algorithms.sort ~lt (range_of_dlist d);
           Dlist.to_list d = List.sort Stdlib.compare l));
    qtest
      (QCheck.Test.make ~name:"sort on restricted RA = mergesort path"
         ~count:100 small_list (fun l ->
           let a = varray_of l in
           let f = Iter.restrict Iter.Forward (Varray.begin_ a) in
           let e = Iter.restrict Iter.Forward (Varray.end_ a) in
           Algorithms.sort ~lt (f, e);
           Varray.to_list a = List.sort Stdlib.compare l));
    qtest
      (QCheck.Test.make ~name:"stable_sort stable on pairs" ~count:100
         (QCheck.list_of_size (QCheck.Gen.int_range 0 30)
            (QCheck.pair (QCheck.int_range 0 5) QCheck.small_int))
         (fun l ->
           let dummy = (0, 0) in
           let a = Varray.of_list ~dummy l in
           let plt (k1, _) (k2, _) = k1 < k2 in
           Algorithms.stable_sort ~lt:plt (Varray.begin_ a, Varray.end_ a);
           Varray.to_list a
           = List.stable_sort (fun (a, _) (b, _) -> Stdlib.compare a b) l));
    qtest
      (QCheck.Test.make ~name:"lower_bound postcondition" ~count:200
         (QCheck.pair small_list QCheck.small_int) (fun (l, x) ->
           let sorted = List.sort Stdlib.compare l in
           let a = varray_of sorted in
           let r = range_of_varray a in
           let it = Algorithms.lower_bound ~lt x r in
           let i = Algorithms.distance (Varray.begin_ a) it in
           let arr = Array.of_list sorted in
           let ok_before = Array.for_all (fun v -> v < x) (Array.sub arr 0 i) in
           let ok_after =
             Array.for_all (fun v -> not (v < x))
               (Array.sub arr i (Array.length arr - i))
           in
           ok_before && ok_after));
    qtest
      (QCheck.Test.make ~name:"binary_search = List.mem on sorted" ~count:200
         (QCheck.pair small_list QCheck.small_int) (fun (l, x) ->
           let sorted = List.sort Stdlib.compare l in
           let a = varray_of sorted in
           Algorithms.binary_search ~lt x (range_of_varray a)
           = List.mem x sorted));
    qtest
      (QCheck.Test.make ~name:"nth_element selects order statistic"
         ~count:200
         (QCheck.pair
            (QCheck.list_of_size (QCheck.Gen.int_range 1 40) QCheck.small_int)
            QCheck.small_int)
         (fun (l, k) ->
           let k = k mod List.length l in
           let a = varray_of l in
           Algorithms.nth_element ~lt (range_of_varray a) k;
           Varray.get a k = List.nth (List.sort Stdlib.compare l) k));
    qtest
      (QCheck.Test.make ~name:"reverse involution" ~count:200 small_list
         (fun l ->
           let a = varray_of l in
           Algorithms.reverse (range_of_varray a);
           Algorithms.reverse (range_of_varray a);
           Varray.to_list a = l));
    qtest
      (QCheck.Test.make ~name:"is_sorted agrees with reference" ~count:200
         small_list (fun l ->
           let a = varray_of l in
           Algorithms.is_sorted ~lt (range_of_varray a)
           = (List.sort Stdlib.compare l = l)));
    qtest
      (QCheck.Test.make ~name:"rotate preserves multiset & order" ~count:200
         (QCheck.pair small_list QCheck.small_int) (fun (l, k) ->
           QCheck.assume (l <> []);
           let k = k mod List.length l in
           let a = varray_of l in
           let mid = Algorithms.advance (Varray.begin_ a) k in
           let _ = Algorithms.rotate (Varray.begin_ a, mid, Varray.end_ a) in
           let expected =
             List.filteri (fun i _ -> i >= k) l
             @ List.filteri (fun i _ -> i < k) l
           in
           Varray.to_list a = expected));
  ]

(* The second wave of STL algorithms. *)
let test_quantifiers () =
  let a = varray_of [ 2; 4; 6 ] in
  let r = range_of_varray a in
  Alcotest.(check bool) "all even" true
    (Algorithms.all_of (fun x -> x mod 2 = 0) r);
  Alcotest.(check bool) "any > 5" true (Algorithms.any_of (fun x -> x > 5) r);
  Alcotest.(check bool) "none negative" true
    (Algorithms.none_of (fun x -> x < 0) r);
  (* vacuous truth on the empty range *)
  let e = varray_of [] in
  Alcotest.(check bool) "all_of empty" true
    (Algorithms.all_of (fun _ -> false) (range_of_varray e))

let test_adjacent_find () =
  let a = varray_of [ 1; 2; 2; 3 ] in
  let it = Algorithms.adjacent_find ~eq (range_of_varray a) in
  Alcotest.(check int) "finds the first of the pair" 1
    (Algorithms.distance (Varray.begin_ a) it);
  let b = varray_of [ 1; 2; 3 ] in
  let miss = Algorithms.adjacent_find ~eq (range_of_varray b) in
  Alcotest.(check bool) "none -> last" true
    (Iter.equal miss (Varray.end_ b))

let test_inner_product () =
  let a = varray_of [ 1; 2; 3 ] and b = varray_of [ 4; 5; 6 ] in
  Alcotest.(check int) "dot product" 32
    (Algorithms.inner_product ~add:( + ) ~mul:( * ) ~init:0
       (range_of_varray a) (range_of_varray b))

let test_replace_generate_iota () =
  let a = varray_of [ 1; 2; 3; 4 ] in
  Algorithms.replace_if (fun x -> x mod 2 = 0) ~with_:0 (range_of_varray a);
  Alcotest.(check (list int)) "replace_if" [ 1; 0; 3; 0 ] (Varray.to_list a);
  let b = varray_of [ 0; 0; 0; 0 ] in
  Algorithms.iota ~start:5 (range_of_varray b);
  Alcotest.(check (list int)) "iota" [ 5; 6; 7; 8 ] (Varray.to_list b)

let test_equal_range () =
  let a = varray_of [ 1; 3; 3; 3; 7 ] in
  let lo, hi = Algorithms.equal_range ~lt 3 (range_of_varray a) in
  Alcotest.(check int) "width" 3 (Algorithms.distance lo hi);
  Alcotest.(check int) "start index" 1
    (Algorithms.distance (Varray.begin_ a) lo)

let test_is_partitioned () =
  let yes = varray_of [ 2; 4; 1; 3 ] in
  let no = varray_of [ 2; 1; 4 ] in
  let p x = x mod 2 = 0 in
  Alcotest.(check bool) "partitioned" true
    (Algorithms.is_partitioned p (range_of_varray yes));
  Alcotest.(check bool) "not partitioned" false
    (Algorithms.is_partitioned p (range_of_varray no));
  (* partition establishes the property (qcheck-lite loop) *)
  List.iter
    (fun l ->
      let a = varray_of l in
      let _ = Algorithms.partition p (range_of_varray a) in
      Alcotest.(check bool) "post-partition" true
        (Algorithms.is_partitioned p (range_of_varray a)))
    [ [ 1; 2; 3; 4; 5 ]; []; [ 2 ]; [ 1; 1; 2; 2 ] ]

(* Output iterators: back_inserter / front_inserter. *)
let test_back_inserter () =
  let src = varray_of [ 1; 2; 3 ] in
  let dst = Varray.create ~dummy:0 () in
  let _ = Algorithms.copy (range_of_varray src) (Varray.back_inserter dst) in
  Alcotest.(check (list int)) "copy appends" [ 1; 2; 3 ] (Varray.to_list dst);
  (* the inserter survives the reallocations its own writes cause *)
  let big = Varray.create ~dummy:0 () in
  let _ =
    Algorithms.copy
      (range_of_varray (varray_of (List.init 100 Fun.id)))
      (Varray.back_inserter big)
  in
  Alcotest.(check int) "100 appended" 100 (Varray.length big);
  (* transform into a list via its front inserter reverses *)
  let l = Dlist.create () in
  let _ =
    Algorithms.transform (fun x -> x * 10) (range_of_varray src)
      (Dlist.front_inserter l)
  in
  Alcotest.(check (list int)) "front-inserted reversed" [ 30; 20; 10 ]
    (Dlist.to_list l)

let test_output_iterator_is_write_only () =
  let dst = Varray.create ~dummy:0 () in
  let out = Varray.back_inserter dst in
  Alcotest.(check bool) "reading raises" true
    (match Gp_sequence.Iter.get out with
    | _ -> false
    | exception Gp_sequence.Iter.Category_violation _ -> true);
  Alcotest.(check bool) "category is Output" true
    (Gp_sequence.Iter.category out = Gp_sequence.Iter.Output)

(* Sorted-range set operations vs a sorted-list reference model. *)
let multiset_union a b =
  (* max(m, n) copies of each element *)
  let count x l = List.length (List.filter (( = ) x) l) in
  let keys = List.sort_uniq compare (a @ b) in
  List.concat_map
    (fun k -> List.init (max (count k a) (count k b)) (fun _ -> k))
    keys

let multiset_inter a b =
  let count x l = List.length (List.filter (( = ) x) l) in
  let keys = List.sort_uniq compare a in
  List.concat_map
    (fun k -> List.init (min (count k a) (count k b)) (fun _ -> k))
    keys

let multiset_diff a b =
  let count x l = List.length (List.filter (( = ) x) l) in
  let keys = List.sort_uniq compare a in
  List.concat_map
    (fun k -> List.init (max 0 (count k a - count k b)) (fun _ -> k))
    keys

let run_setop op a b =
  let sa = List.sort compare a and sb = List.sort compare b in
  let va = varray_of sa and vb = varray_of sb in
  let out = varray_of (List.init (List.length a + List.length b) (fun _ -> 0)) in
  let final =
    op ~lt (range_of_varray va) (range_of_varray vb) (Varray.begin_ out)
  in
  let k = Algorithms.distance (Varray.begin_ out) final in
  List.filteri (fun i _ -> i < k) (Varray.to_list out)

let small_pair =
  QCheck.pair
    (QCheck.list_of_size (QCheck.Gen.int_range 0 20) (QCheck.int_range 0 9))
    (QCheck.list_of_size (QCheck.Gen.int_range 0 20) (QCheck.int_range 0 9))

let setop_props =
  [
    qtest
      (QCheck.Test.make ~name:"set_union = multiset reference" ~count:200
         small_pair (fun (a, b) ->
           run_setop Algorithms.set_union a b
           = List.sort compare (multiset_union a b)));
    qtest
      (QCheck.Test.make ~name:"set_intersection = multiset reference"
         ~count:200 small_pair (fun (a, b) ->
           run_setop Algorithms.set_intersection a b
           = List.sort compare (multiset_inter a b)));
    qtest
      (QCheck.Test.make ~name:"set_difference = multiset reference"
         ~count:200 small_pair (fun (a, b) ->
           run_setop Algorithms.set_difference a b
           = List.sort compare (multiset_diff a b)));
    qtest
      (QCheck.Test.make ~name:"includes iff empty difference" ~count:200
         small_pair (fun (a, b) ->
           let sa = List.sort compare a and sb = List.sort compare b in
           let va = varray_of sa and vb = varray_of sb in
           Algorithms.includes ~lt (range_of_varray va) (range_of_varray vb)
           = (multiset_diff b a = [])));
    qtest
      (QCheck.Test.make ~name:"union of x with itself = x" ~count:100
         (QCheck.list_of_size (QCheck.Gen.int_range 0 20)
            (QCheck.int_range 0 9))
         (fun a ->
           run_setop Algorithms.set_union a a = List.sort compare a));
  ]

(* Operation counters: lower_bound does O(log n) comparisons worth of
   derefs, find does O(n). *)
let test_counters_lower_bound_vs_find () =
  let nitems = 1024 in
  let a = varray_of (List.init nitems (fun i -> i)) in
  let c_find = Iter.counters () in
  let first = Iter.counting c_find (Varray.begin_ a) in
  let last = Varray.end_ a in
  let _ = Algorithms.find ~eq (nitems - 1) (first, last) in
  let c_lb = Iter.counters () in
  let first2 = Iter.counting c_lb (Varray.begin_ a) in
  let _ = Algorithms.lower_bound ~lt (nitems - 1) (first2, last) in
  Alcotest.(check bool) "find is linear" true (c_find.Iter.derefs >= nitems - 1);
  Alcotest.(check bool) "lower_bound is logarithmic" true
    (c_lb.Iter.derefs <= 2 * 11)

(* ------------------------------------------------------------------ *)
(* STL taxonomy                                                        *)
(* ------------------------------------------------------------------ *)

let test_stl_taxonomy_best_search () =
  let t = Taxonomy_stl.build () in
  let sorted = Taxonomy_stl.best_search t ~sorted:true in
  Alcotest.(check bool) "sorted search includes lower_bound/binary_search"
    true
    (List.exists
       (fun e -> e.Gp_concepts.Taxonomy.en_name = "lower_bound")
       sorted);
  let unsorted = Taxonomy_stl.best_search t ~sorted:false in
  Alcotest.(check (list string)) "unsorted search is find" [ "find" ]
    (List.map (fun e -> e.Gp_concepts.Taxonomy.en_name) unsorted)

let test_stl_taxonomy_sorting_distinctions () =
  let t = Taxonomy_stl.build () in
  (* stable sorting requirement excludes introsort *)
  let stable =
    Gp_concepts.Taxonomy.applicable t
      ~requirements:[ ("problem", "sorting"); ("stable", "yes") ]
  in
  Alcotest.(check (list string)) "stable sorting" [ "mergesort" ]
    (List.map (fun e -> e.Gp_concepts.Taxonomy.en_name) stable)

(* Algorithms driven through a deque (the third container model). *)
let test_algorithms_on_deque () =
  let d = Deque.of_list ~dummy:0 [ 5; 1; 4; 2; 3 ] in
  Algorithms.sort ~lt (Deque.begin_ d, Deque.end_ d);
  Alcotest.(check (list int)) "deque sorted" [ 1; 2; 3; 4; 5 ]
    (Deque.to_list d);
  Alcotest.(check bool) "binary_search on deque" true
    (Algorithms.binary_search ~lt 4 (Deque.begin_ d, Deque.end_ d));
  let p =
    Algorithms.partition (fun x -> x mod 2 = 1) (Deque.begin_ d, Deque.end_ d)
  in
  Alcotest.(check int) "three odds first" 3
    (Algorithms.distance (Deque.begin_ d) p)

let () =
  Alcotest.run "gp_sequence"
    [
      ( "containers",
        [
          Alcotest.test_case "varray basics" `Quick test_varray_basics;
          Alcotest.test_case "varray growth" `Quick test_varray_growth;
          Alcotest.test_case "varray erase/insert" `Quick
            test_varray_erase_insert;
          Alcotest.test_case "dlist basics" `Quick test_dlist_basics;
          Alcotest.test_case "dlist erase stability" `Quick
            test_dlist_erase_stability;
          Alcotest.test_case "deque basics" `Quick test_deque_basics;
          deque_ring_prop;
        ] );
      ( "checked iterators",
        [
          Alcotest.test_case "vector invalidation" `Quick
            test_vector_iterator_invalidation;
          Alcotest.test_case "fig4 dynamic" `Quick test_fig4_dynamic;
          Alcotest.test_case "singular" `Quick test_singular_iterator;
          Alcotest.test_case "past-end deref" `Quick test_past_end_deref;
          Alcotest.test_case "category violation" `Quick
            test_category_violation;
          Alcotest.test_case "restrict" `Quick test_restrict;
          Alcotest.test_case "multipass violation" `Quick
            test_input_stream_multipass_violation;
          Alcotest.test_case "max_element multipass archetype" `Quick
            test_max_element_needs_multipass;
          Alcotest.test_case "max_element forward ok" `Quick
            test_max_element_ok_on_forward;
          Alcotest.test_case "list back from begin" `Quick
            test_dlist_back_from_begin;
          Alcotest.test_case "mutation through a stale iterator" `Quick
            test_mutation_through_stale;
          Alcotest.test_case "input stream: one pass" `Quick
            test_stream_single_pass;
          walk_prop;
        ] );
      ( "algorithms",
        [
          Alcotest.test_case "distance/advance" `Quick test_distance_advance;
          Alcotest.test_case "find" `Quick test_find;
          Alcotest.test_case "fold/count" `Quick test_fold_count;
          Alcotest.test_case "copy/transform" `Quick test_copy_transform;
          Alcotest.test_case "equal/lexicographic" `Quick
            test_equal_lexicographic;
          Alcotest.test_case "reverse/rotate" `Quick test_reverse_rotate;
          Alcotest.test_case "unique/remove/partition" `Quick
            test_unique_remove_partition;
          Alcotest.test_case "binary search trio" `Quick
            test_binary_search_trio;
          Alcotest.test_case "merge" `Quick test_merge;
          Alcotest.test_case "sort dispatch" `Quick test_sort_dispatch_choice;
          Alcotest.test_case "counters" `Quick
            test_counters_lower_bound_vs_find;
        ] );
      ("algorithm properties", sort_props);
      ("set operations", setop_props);
      ( "stl wave 2",
        [
          Alcotest.test_case "quantifiers" `Quick test_quantifiers;
          Alcotest.test_case "adjacent_find" `Quick test_adjacent_find;
          Alcotest.test_case "inner_product" `Quick test_inner_product;
          Alcotest.test_case "replace/generate/iota" `Quick
            test_replace_generate_iota;
          Alcotest.test_case "equal_range" `Quick test_equal_range;
          Alcotest.test_case "is_partitioned" `Quick test_is_partitioned;
        ] );
      ( "output iterators",
        [
          Alcotest.test_case "back_inserter" `Quick test_back_inserter;
          Alcotest.test_case "write-only" `Quick
            test_output_iterator_is_write_only;
        ] );
      ( "taxonomy & deque",
        [
          Alcotest.test_case "best search" `Quick
            test_stl_taxonomy_best_search;
          Alcotest.test_case "sorting distinctions" `Quick
            test_stl_taxonomy_sorting_distinctions;
          Alcotest.test_case "algorithms on deque" `Quick
            test_algorithms_on_deque;
        ] );
    ]
