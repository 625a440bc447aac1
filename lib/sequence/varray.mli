(** A growable array ("vector") with checked random-access iterators.

    Invalidation semantics mirror [std::vector]: any structural mutation
    (push_back, erase, insert, pop_back, clear) bumps the container
    version and invalidates all outstanding iterators — using one
    afterwards raises {!Iter.Invalidated}. *)

type 'a t

val create : dummy:'a -> unit -> 'a t
(** [dummy] fills unused capacity (OCaml arrays need an inhabitant). *)

val of_list : dummy:'a -> 'a list -> 'a t
val of_array : dummy:'a -> 'a array -> 'a t
val to_list : 'a t -> 'a list

val length : 'a t -> int
val capacity : 'a t -> int

val get : 'a t -> int -> 'a
val set : 'a t -> int -> 'a -> unit

val push_back : 'a t -> 'a -> unit
(** Amortised O(1); invalidates all iterators. *)

val pop_back : 'a t -> unit
val clear : 'a t -> unit

val begin_ : 'a t -> 'a Iter.t
val end_ : 'a t -> 'a Iter.t

val index_of : 'a t -> 'a Iter.t -> int
(** Raises [Invalid_argument] on a foreign iterator and
    {!Iter.Invalidated} on a stale one. *)

val erase : 'a t -> 'a Iter.t -> 'a Iter.t
(** Shift-erase at the iterator; invalidates all iterators; returns an
    iterator (in the new version) to the element after the erased one.
    Raises like {!index_of}. *)

val insert : 'a t -> 'a Iter.t -> 'a -> 'a Iter.t
(** Insert before the iterator; invalidates all iterators; returns an
    iterator to the inserted element. *)

val pp : (Format.formatter -> 'a -> unit) -> Format.formatter -> 'a t -> unit

val back_inserter : 'a t -> 'a Iter.t
(** A write-only iterator appending via {!push_back}; stays usable across
    the container's reallocations. *)
