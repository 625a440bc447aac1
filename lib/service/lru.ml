(* A content-keyed LRU memo cache with hit/miss accounting.

   Hashtbl for lookup, a doubly-linked list of slot indices for recency
   order. Capacity is a hard bound on entry count; insertion past it evicts the
   least-recently-used entry. Keys are canonical content strings (see
   Dispatch's key builders / Propagate.add_request_key), so cache
   identity is data identity — there is nothing to invalidate, only to
   evict. *)

(* A hit relinks int slots, never a pointer: the recency list is two int
   arrays indexed by slot, so no store on the hit path goes through the
   write barrier or leaves a fresh block behind. A binding is an
   immutable entry in the table, made once when it is added. *)
type 'v entry = { value : 'v; slot : int }

type 'v t = {
  name : string;
  capacity : int;
  tbl : (string, 'v entry) Hashtbl.t;
  (* slots 0 .. used - 1 hold the bindings; the arrays grow on demand,
     over immediate or literal fills, up to [capacity] *)
  mutable slot_keys : string array; (* the key of each slot, for eviction *)
  mutable prev : int array; (* towards most-recent; -1 at the head *)
  mutable next : int array; (* towards least-recent; -1 at the tail *)
  mutable used : int;
  mutable mru : int; (* -1 when empty *)
  mutable lru : int;
  counts : int array; (* hits at [base], misses at [base + 1] *)
  base : int;
  mutable evictions : int;
}

type stats = {
  st_name : string;
  st_capacity : int;
  st_size : int;
  st_hits : int;
  st_misses : int;
  st_evictions : int;
}

let create ?counts ~capacity name =
  if capacity < 1 then invalid_arg "Lru.create: capacity < 1";
  let counts, base =
    match counts with Some c -> c | None -> (Array.make 2 0, 0)
  in
  if base < 0 || base + 1 >= Array.length counts then
    invalid_arg "Lru.create: counts out of range";
  { name; capacity; tbl = Hashtbl.create (min capacity 64); slot_keys = [||];
    prev = [||]; next = [||]; used = 0; mru = -1; lru = -1; counts; base;
    evictions = 0 }

let name t = t.name
let size t = Hashtbl.length t.tbl

let unlink t s =
  let p = t.prev.(s) and n = t.next.(s) in
  if p >= 0 then t.next.(p) <- n else t.mru <- n;
  if n >= 0 then t.prev.(n) <- p else t.lru <- p

let push_front t s =
  t.prev.(s) <- -1;
  t.next.(s) <- t.mru;
  if t.mru >= 0 then t.prev.(t.mru) <- s else t.lru <- s;
  t.mru <- s

let hit t e =
  t.counts.(t.base) <- t.counts.(t.base) + 1;
  if t.mru <> e.slot then begin
    unlink t e.slot;
    push_front t e.slot
  end;
  e.value

let find t key =
  match Hashtbl.find t.tbl key with
  | e -> Some (hit t e)
  | exception Not_found ->
    t.counts.(t.base + 1) <- t.counts.(t.base + 1) + 1;
    None

(* [find] without the option: the miss answer is the caller's static
   sentinel *)
let find_or t key absent =
  match Hashtbl.find t.tbl key with
  | e -> hit t e
  | exception Not_found ->
    t.counts.(t.base + 1) <- t.counts.(t.base + 1) + 1;
    absent

let mem t key = Hashtbl.mem t.tbl key

(* A fresh slot, growing the arrays (doubling, from 16) when every one
   is in use. *)
let fresh_slot t =
  let size = Array.length t.slot_keys in
  if t.used = size then begin
    let grown = Int.min t.capacity (Int.max 16 (2 * size)) in
    let extend a fill =
      let b = Array.make grown fill in
      Array.blit a 0 b 0 size;
      b
    in
    t.slot_keys <- extend t.slot_keys "";
    t.prev <- extend t.prev (-1);
    t.next <- extend t.next (-1)
  end;
  t.used <- t.used + 1;
  t.used - 1

(* A replaced binding keeps its slot; past capacity, the new binding
   takes the least-recently-used one's. *)
let add t key value =
  let slot =
    match Hashtbl.find t.tbl key with
    | old ->
      unlink t old.slot;
      old.slot
    | exception Not_found ->
      if t.used < t.capacity then fresh_slot t
      else begin
        let victim = t.lru in
        unlink t victim;
        Hashtbl.remove t.tbl t.slot_keys.(victim);
        t.evictions <- t.evictions + 1;
        victim
      end
  in
  t.slot_keys.(slot) <- key;
  Hashtbl.replace t.tbl key { value; slot };
  push_front t slot

(* The memoisation workhorse: [enabled:false] bypasses the cache entirely
   (no stats traffic), so a cache-off server reports all-zero tables
   rather than misleading misses. *)
let find_or_compute t ~enabled key f =
  if not enabled then (f (), false)
  else
    match find t key with
    | Some v -> (v, true)
    | None ->
      let v = f () in
      add t key v;
      (v, false)

let clear t =
  Hashtbl.reset t.tbl;
  Array.fill t.slot_keys 0 t.used "";
  t.used <- 0;
  t.mru <- -1;
  t.lru <- -1

let stats t =
  { st_name = t.name; st_capacity = t.capacity; st_size = size t;
    st_hits = t.counts.(t.base); st_misses = t.counts.(t.base + 1); st_evictions = t.evictions }

let hit_ratio st =
  let total = st.st_hits + st.st_misses in
  if total = 0 then 0.0 else float_of_int st.st_hits /. float_of_int total

(* Keys from most- to least-recently used; the recency order is part of
   the module's contract and is property-tested. *)
let keys_mru_first t =
  let rec go acc s =
    if s < 0 then List.rev acc else go (t.slot_keys.(s) :: acc) t.next.(s)
  in
  go [] t.mru

let pp_stats ppf st =
  Fmt.pf ppf "%-10s cap=%-5d size=%-5d hits=%-7d misses=%-7d evict=%-6d %5.1f%%"
    st.st_name st.st_capacity st.st_size st.st_hits st.st_misses
    st.st_evictions
    (100.0 *. hit_ratio st)
