(* The growable ring buffer under Varray and Deque, and the one
   random-access iterator table both share. A vector is a ring whose head
   stays at slot 0. The table reads the ring's fields directly, so an
   indexed access through an iterator costs one call. *)

type 'a t = {
  mutable data : 'a array;
  mutable head : int; (* slot of element 0 *)
  mutable len : int;
  mutable version : int; (* bumped by every invalidating mutation *)
  dummy : 'a; (* fill value for unused slots *)
  name : string;
  ops : ('a, int) Iter.table Lazy.t; (* built on the first iterator *)
}

(* head < capacity and i <= len <= capacity, so one subtraction wraps *)
let[@inline] slot t i =
  let k = t.head + i in
  if k >= Array.length t.data then k - Array.length t.data else k

(* Positions are indices, checked against the version they were made in. *)
let table ~noun ~stale t =
  let valid _ v = if t.version <> v then raise (Iter.Invalidated stale) in
  let past_end = "dereference of past-the-end " ^ noun ^ " iterator" in
  let element i =
    if i < 0 || i >= t.len then raise (Iter.Singular past_end);
    slot t i
  in
  (* the sort path, checks inline: a vector (head 0) skips the wrap *)
  let indexed v i n =
    if t.version <> v then raise (Iter.Invalidated stale);
    let j = i + n in
    if j < 0 || j >= t.len then
      raise (Iter.Singular "indexed access outside [begin, end)");
    if t.head = 0 then j else slot t j
  in
  let after_end = "increment past the end of a " ^ noun in
  let before_begin = "decrement before the beginning of a " ^ noun in
  Iter.table Iter.Random_access
    ~version:(fun () -> t.version)
    ~valid
    ~read:(fun i -> t.data.(element i))
    ~write:(fun i x -> t.data.(element i) <- x)
    ~next:(fun i ->
      if i >= t.len then raise (Iter.Singular after_end);
      i + 1)
    ~prev:(fun i ->
      if i <= 0 then raise (Iter.Singular before_begin);
      i - 1)
    ~jump:(fun i n ->
      let j = i + n in
      if j < 0 || j > t.len then
        raise (Iter.Singular "random-access jump outside [begin, end]");
      j)
    (* each returns the accessor for one base position, so an access
       through [Iter.get_at it] is one call *)
    ~read_at:(fun i v ->
      let at n = t.data.(indexed v i n) in
      at)
    ~write_at:(fun i v ->
      let at n x = t.data.(indexed v i n) <- x in
      at)
    ~offset:Fun.id

let create ~name ~noun ~stale ~dummy xs =
  let data = match xs with [] -> Array.make 8 dummy | _ -> Array.of_list xs in
  let rec t =
    { data; head = 0; len = List.length xs; version = 0; dummy; name;
      ops = lazy (table ~noun ~stale t) }
  in
  t

let reserve t n =
  let cap = Array.length t.data in
  if n > cap then begin
    let fresh = Array.make (max n (2 * cap)) t.dummy in
    let upper = min t.len (cap - t.head) in
    Array.blit t.data t.head fresh 0 upper;
    Array.blit t.data 0 fresh upper (t.len - upper);
    t.data <- fresh;
    t.head <- 0
  end

let length t = t.len

let get t i =
  if i < 0 || i >= t.len then
    invalid_arg (t.name ^ ".get: index out of bounds");
  t.data.(slot t i)

let set t i v =
  if i < 0 || i >= t.len then
    invalid_arg (t.name ^ ".set: index out of bounds");
  t.data.(slot t i) <- v

let push_back t v =
  reserve t (t.len + 1);
  t.data.(slot t t.len) <- v;
  t.len <- t.len + 1;
  t.version <- t.version + 1

let pop_back t =
  if t.len = 0 then invalid_arg (t.name ^ ".pop_back: empty");
  t.len <- t.len - 1;
  t.data.(slot t t.len) <- t.dummy;
  t.version <- t.version + 1

let to_list t = List.init t.len (fun i -> t.data.(slot t i))

let iter_at t i = Iter.make (Lazy.force t.ops) i
let begin_ t = iter_at t 0
let end_ t = iter_at t t.len
