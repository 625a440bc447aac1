(* A content-keyed LRU memo cache with hit/miss accounting.

   Hashtbl for lookup, intrusive doubly-linked list for recency order.
   Capacity is a hard bound on entry count; insertion past it evicts the
   least-recently-used entry. Keys are canonical content strings (see
   Dispatch's key builders / Propagate.add_request_key), so cache
   identity is data identity — there is nothing to invalidate, only to
   evict. *)

type 'v node = {
  nd_key : string;
  nd_value : 'v;
  mutable prev : 'v node option; (* towards most-recent *)
  mutable next : 'v node option; (* towards least-recent *)
}

type 'v t = {
  name : string;
  capacity : int;
  tbl : (string, 'v node) Hashtbl.t;
  mutable mru : 'v node option;
  mutable lru : 'v node option;
  mutable hits : int;
  mutable misses : int;
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

let create ~capacity name =
  if capacity < 1 then invalid_arg "Lru.create: capacity < 1";
  { name; capacity; tbl = Hashtbl.create (min capacity 64); mru = None;
    lru = None; hits = 0; misses = 0; evictions = 0 }

let name t = t.name
let size t = Hashtbl.length t.tbl

let unlink t nd =
  (match nd.prev with
  | Some p -> p.next <- nd.next
  | None -> t.mru <- nd.next);
  (match nd.next with
  | Some n -> n.prev <- nd.prev
  | None -> t.lru <- nd.prev);
  nd.prev <- None;
  nd.next <- None

let push_front t nd =
  nd.next <- t.mru;
  nd.prev <- None;
  (match t.mru with Some m -> m.prev <- Some nd | None -> t.lru <- Some nd);
  t.mru <- Some nd

let hit t nd =
  t.hits <- t.hits + 1;
  unlink t nd;
  push_front t nd;
  nd.nd_value

let find t key =
  match Hashtbl.find_opt t.tbl key with
  | Some nd -> Some (hit t nd)
  | None ->
    t.misses <- t.misses + 1;
    None

(* [find] without the option: [Hashtbl.find] allocates no [Some] on a
   hit, and the miss answer is the caller's static sentinel *)
let find_or t key absent =
  match Hashtbl.find t.tbl key with
  | nd -> hit t nd
  | exception Not_found ->
    t.misses <- t.misses + 1;
    absent

let mem t key = Hashtbl.mem t.tbl key

let add t key value =
  (match Hashtbl.find_opt t.tbl key with
  | Some old ->
    unlink t old;
    Hashtbl.remove t.tbl key
  | None -> ());
  if Hashtbl.length t.tbl >= t.capacity then (
    match t.lru with
    | Some victim ->
      unlink t victim;
      Hashtbl.remove t.tbl victim.nd_key;
      t.evictions <- t.evictions + 1
    | None -> ());
  let nd = { nd_key = key; nd_value = value; prev = None; next = None } in
  Hashtbl.replace t.tbl key nd;
  push_front t nd

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
  t.mru <- None;
  t.lru <- None

let stats t =
  { st_name = t.name; st_capacity = t.capacity; st_size = size t;
    st_hits = t.hits; st_misses = t.misses; st_evictions = t.evictions }

(* allocation-free counter reads, for per-request snapshot deltas *)
let hits t = t.hits
let misses t = t.misses

let hit_ratio st =
  let total = st.st_hits + st.st_misses in
  if total = 0 then 0.0 else float_of_int st.st_hits /. float_of_int total

(* Keys from most- to least-recently used; the recency order is part of
   the module's contract and is property-tested. *)
let keys_mru_first t =
  let rec go acc = function
    | None -> List.rev acc
    | Some nd -> go (nd.nd_key :: acc) nd.next
  in
  go [] t.mru

let pp_stats ppf st =
  Fmt.pf ppf "%-10s cap=%-5d size=%-5d hits=%-7d misses=%-7d evict=%-6d %5.1f%%"
    st.st_name st.st_capacity st.st_size st.st_hits st.st_misses
    st.st_evictions
    (100.0 *. hit_ratio st)
