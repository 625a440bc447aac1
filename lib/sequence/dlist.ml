(* A doubly-linked list with a sentinel node and checked bidirectional
   iterators.

   Invalidation semantics mirror std::list: insertion invalidates nothing;
   erase invalidates only iterators to the erased element (dead nodes are
   marked, and iterators detect them on use). This difference from
   {!Varray} is precisely what the iterator-invalidation analysis in
   gp_stllint keys on. *)

type 'a node = {
  mutable value : 'a option; (* None only for the sentinel *)
  mutable prev : 'a node;
  mutable next : 'a node;
  mutable dead : bool;
}

(* A position is its node; the sentinel is past-the-end. *)
type 'a t = {
  sentinel : 'a node;
  mutable len : int;
  ops : ('a, 'a node) Iter.table;
}

let create () =
  let rec sentinel =
    { value = None; prev = sentinel; next = sentinel; dead = false }
  in
  let ops =
    Iter.table Iter.Bidirectional
      ~valid:(fun node _ ->
        if node.dead then
          raise (Iter.Invalidated "list iterator to an erased element"))
      ~read:(fun node ->
        match node.value with
        | Some v -> v
        | None ->
          raise (Iter.Singular "dereference of past-the-end list iterator"))
      ~write:(fun node v ->
        match node.value with
        | Some _ -> node.value <- Some v
        | None ->
          raise (Iter.Singular "write through past-the-end list iterator"))
      ~next:(fun node ->
        if node == sentinel then
          raise (Iter.Singular "increment of past-the-end list iterator");
        node.next)
      ~prev:(fun node ->
        if node.prev == sentinel then
          raise (Iter.Singular "decrement before the beginning of a list");
        node.prev)
  in
  { sentinel; len = 0; ops }

let length t = t.len
let is_empty t = t.len = 0

let link_before t node v =
  let fresh = { value = Some v; prev = node.prev; next = node; dead = false } in
  node.prev.next <- fresh;
  node.prev <- fresh;
  t.len <- t.len + 1;
  fresh

let push_back t v = ignore (link_before t t.sentinel v)
let push_front t v = ignore (link_before t t.sentinel.next v)

let of_list xs =
  let t = create () in
  List.iter (push_back t) xs;
  t

let to_list t =
  let rec go acc node =
    if node == t.sentinel then List.rev acc
    else
      match node.value with
      | Some v -> go (v :: acc) node.next
      | None -> go acc node.next
  in
  go [] t.sentinel.next

let begin_ t = Iter.make t.ops t.sentinel.next
let end_ t = Iter.make t.ops t.sentinel

(* The node of an iterator, in O(1); raises if foreign or erased. *)
let node_of t it =
  match Iter.position t.ops it with
  | Some node -> node
  | None -> invalid_arg "Dlist.node_of: foreign iterator"

(* Erase the element at [it]. Only iterators to this node are invalidated;
   returns an iterator to the following element. *)
let erase t it =
  let node = node_of t it in
  if node == t.sentinel then invalid_arg "Dlist.erase: past-the-end";
  node.prev.next <- node.next;
  node.next.prev <- node.prev;
  node.dead <- true;
  t.len <- t.len - 1;
  Iter.make t.ops node.next

(* Insert [v] before [it]; nothing is invalidated. *)
let insert t it v =
  let node = node_of t it in
  let fresh = link_before t node v in
  Iter.make t.ops fresh

let pp pp_elem ppf t =
  Fmt.pf ppf "[%a]" Fmt.(list ~sep:(any "; ") pp_elem) (to_list t)

(* Back- and front-inserting output iterators. *)
let back_inserter t = Iter.output_to (push_back t)
let front_inserter t = Iter.output_to (push_front t)
