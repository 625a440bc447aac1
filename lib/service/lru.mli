(** Content-keyed LRU memo cache with hit/miss accounting.

    Keys are canonical content strings (request texts and the
    structural keys {!Dispatch} builds, such as
    {!Gp_concepts.Propagate.add_request_key}),
    so cache identity is data identity: nothing is ever invalidated, only
    evicted by recency when the capacity bound is hit. *)

type 'v t

type stats = {
  st_name : string;
  st_capacity : int;
  st_size : int;
  st_hits : int;
  st_misses : int;
  st_evictions : int;
}

val create : ?counts:int array * int -> capacity:int -> string -> 'v t
(** [counts = (a, i)]: the cache counts its hits in [a.(i)] and its
    misses in [a.(i + 1)], so the caches of one owner can share an array
    the owner reads in one pass (by default a private one). Raises
    [Invalid_argument] when [capacity < 1] or [i] is out of range. *)

val name : _ t -> string
val size : _ t -> int

val find : 'v t -> string -> 'v option
(** Records a hit or miss; a hit refreshes recency. *)

val find_or : 'v t -> string -> 'v -> 'v
(** [find_or t key absent]: {!find} without the option — the bound value,
    or [absent] (a caller's static sentinel, compared with [==]) on a
    miss. *)

val mem : _ t -> string -> bool
(** Pure membership probe: no stats traffic, no recency refresh. *)

val add : 'v t -> string -> 'v -> unit
(** Insert as most-recent, replacing any previous binding; evicts the
    least-recently-used entry when full. *)

val find_or_compute : 'v t -> enabled:bool -> string -> (unit -> 'v) -> 'v * bool
(** [(value, was_hit)]. With [enabled:false] the cache is bypassed
    entirely — no lookup, no insertion, no stats — so a cache-off server
    reports all-zero tables. *)

val clear : 'v t -> unit
(** Drop all entries; stats are kept. *)

val stats : _ t -> stats
val hit_ratio : stats -> float

val keys_mru_first : _ t -> string list
(** Recency order, most-recent first — part of the contract, property
    tested. *)

val pp_stats : Format.formatter -> stats -> unit
