(** A doubly-linked list with checked bidirectional iterators.

    Invalidation semantics mirror [std::list]: insertion invalidates
    nothing; erase invalidates only iterators to the erased element.
    This asymmetry with {!Varray} is what the invalidation analysis in
    gp_stllint keys on. *)

type 'a t

val create : unit -> 'a t
val of_list : 'a list -> 'a t
val to_list : 'a t -> 'a list

val length : 'a t -> int
val is_empty : 'a t -> bool

val push_back : 'a t -> 'a -> unit
val push_front : 'a t -> 'a -> unit

val begin_ : 'a t -> 'a Iter.t
val end_ : 'a t -> 'a Iter.t

val erase : 'a t -> 'a Iter.t -> 'a Iter.t
(** Unlink the element in O(1); only its own iterators become invalid;
    returns an iterator to the following element. Raises
    [Invalid_argument] on a foreign iterator and {!Iter.Invalidated} on
    an erased one (as {!insert} does). *)

val insert : 'a t -> 'a Iter.t -> 'a -> 'a Iter.t
(** Insert before the iterator; nothing is invalidated; returns an
    iterator to the fresh element. *)

val pp : (Format.formatter -> 'a -> unit) -> Format.formatter -> 'a t -> unit

val back_inserter : 'a t -> 'a Iter.t
val front_inserter : 'a t -> 'a Iter.t
