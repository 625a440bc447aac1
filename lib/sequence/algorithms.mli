(** Generic sequence algorithms over {!Iter.t} ranges [[first, last)].

    Each algorithm states its iterator-concept requirement; bodies use
    only operations of that category (verified by driving them with
    {!Iter.restrict}-ed and archetype iterators in the tests).
    [advance], [distance] and [sort] dispatch on the category — the
    paper's canonical concept-based overloading (Section 2.1). *)

val distance : 'a Iter.t -> 'a Iter.t -> int
(** O(1) for random access on the same container, O(n) walk otherwise. *)

val advance : 'a Iter.t -> int -> 'a Iter.t
(** O(1) via [jump] when available, else steps; negative offsets need
    bidirectional. *)

(** {2 Non-modifying} *)

val for_each : ('a -> unit) -> 'a Iter.t * 'a Iter.t -> unit
val fold : ('b -> 'a -> 'b) -> 'b -> 'a Iter.t * 'a Iter.t -> 'b
val accumulate : op:('b -> 'a -> 'b) -> init:'b -> 'a Iter.t * 'a Iter.t -> 'b

val find_if : ('a -> bool) -> 'a Iter.t * 'a Iter.t -> 'a Iter.t
val find : eq:('a -> 'a -> bool) -> 'a -> 'a Iter.t * 'a Iter.t -> 'a Iter.t
val count_if : ('a -> bool) -> 'a Iter.t * 'a Iter.t -> int
val count : eq:('a -> 'a -> bool) -> 'a -> 'a Iter.t * 'a Iter.t -> int

val all_of : ('a -> bool) -> 'a Iter.t * 'a Iter.t -> bool
val any_of : ('a -> bool) -> 'a Iter.t * 'a Iter.t -> bool
val none_of : ('a -> bool) -> 'a Iter.t * 'a Iter.t -> bool

val adjacent_find :
  eq:('a -> 'a -> bool) -> 'a Iter.t * 'a Iter.t -> 'a Iter.t
(** First position equal to its successor ([last] if none); Forward. *)

val inner_product :
  add:('c -> 'b -> 'c) ->
  mul:('a -> 'a -> 'b) ->
  init:'c ->
  'a Iter.t * 'a Iter.t ->
  'a Iter.t * 'a Iter.t ->
  'c
(** Generalised inner product; stops at the shorter range. *)

val is_partitioned : ('a -> bool) -> 'a Iter.t * 'a Iter.t -> bool

val equal_ranges :
  eq:('a -> 'a -> bool) -> 'a Iter.t * 'a Iter.t -> 'a Iter.t * 'a Iter.t -> bool

val lexicographic_lt :
  lt:('a -> 'a -> bool) -> 'a Iter.t * 'a Iter.t -> 'a Iter.t * 'a Iter.t -> bool

val max_element : lt:('a -> 'a -> bool) -> 'a Iter.t * 'a Iter.t -> 'a Iter.t
(** Requires ForwardIterator: keeps a saved copy of the best position
    (multipass). On a true input stream this raises
    {!Iter.Multipass_violation} — the Section 3.1 archetype check. *)

val min_element : lt:('a -> 'a -> bool) -> 'a Iter.t * 'a Iter.t -> 'a Iter.t

val is_sorted : lt:('a -> 'a -> bool) -> 'a Iter.t * 'a Iter.t -> bool

(** {2 Modifying} *)

val copy : 'a Iter.t * 'a Iter.t -> 'a Iter.t -> 'a Iter.t
val transform : ('a -> 'b) -> 'a Iter.t * 'a Iter.t -> 'b Iter.t -> 'b Iter.t
val fill : 'a -> 'a Iter.t * 'a Iter.t -> unit

val replace_if : ('a -> bool) -> with_:'a -> 'a Iter.t * 'a Iter.t -> unit
val generate : (unit -> 'a) -> 'a Iter.t * 'a Iter.t -> unit
val iota : start:int -> int Iter.t * int Iter.t -> unit

val reverse : 'a Iter.t * 'a Iter.t -> unit
(** BidirectionalIterator. *)

val rotate : 'a Iter.t * 'a Iter.t * 'a Iter.t -> 'a Iter.t
(** Forward-iterator rotate (SGI cycle-swapping); returns the new
    position of the element formerly at [first]. *)

val unique : eq:('a -> 'a -> bool) -> 'a Iter.t * 'a Iter.t -> 'a Iter.t
(** Compacts adjacent duplicates; returns the new logical end. *)

val remove_if : ('a -> bool) -> 'a Iter.t * 'a Iter.t -> 'a Iter.t
val remove : eq:('a -> 'a -> bool) -> 'a -> 'a Iter.t * 'a Iter.t -> 'a Iter.t

val partition : ('a -> bool) -> 'a Iter.t * 'a Iter.t -> 'a Iter.t
(** Returns the partition point; not stable. *)

(** {2 Sorted-range operations (O(log n) comparisons)} *)

val lower_bound : lt:('a -> 'a -> bool) -> 'a -> 'a Iter.t * 'a Iter.t -> 'a Iter.t
val upper_bound : lt:('a -> 'a -> bool) -> 'a -> 'a Iter.t * 'a Iter.t -> 'a Iter.t
val binary_search : lt:('a -> 'a -> bool) -> 'a -> 'a Iter.t * 'a Iter.t -> bool

val equal_range :
  lt:('a -> 'a -> bool) -> 'a -> 'a Iter.t * 'a Iter.t -> 'a Iter.t * 'a Iter.t
(** [(lower_bound, upper_bound)]: the equivalents of [v]. *)

val merge :
  lt:('a -> 'a -> bool) ->
  'a Iter.t * 'a Iter.t ->
  'a Iter.t * 'a Iter.t ->
  'a Iter.t ->
  'a Iter.t
(** Stable merge of two sorted ranges through an output iterator. *)

(** {2 Sorted-range set algebra (multiset semantics, O(n1+n2))} *)

val includes :
  lt:('a -> 'a -> bool) -> 'a Iter.t * 'a Iter.t -> 'a Iter.t * 'a Iter.t -> bool
(** Is the second sorted range contained (as a multiset) in the first? *)

val set_union :
  lt:('a -> 'a -> bool) ->
  'a Iter.t * 'a Iter.t ->
  'a Iter.t * 'a Iter.t ->
  'a Iter.t ->
  'a Iter.t

val set_intersection :
  lt:('a -> 'a -> bool) ->
  'a Iter.t * 'a Iter.t ->
  'a Iter.t * 'a Iter.t ->
  'a Iter.t ->
  'a Iter.t

val set_difference :
  lt:('a -> 'a -> bool) ->
  'a Iter.t * 'a Iter.t ->
  'a Iter.t * 'a Iter.t ->
  'a Iter.t ->
  'a Iter.t

(** {2 Sorting with concept dispatch} *)

module Introsort : sig
  val sort_indexed :
    lt:('a -> 'a -> bool) ->
    get:(int -> 'a) ->
    set:(int -> 'a -> unit) ->
    int ->
    unit
  (** Introsort (median-of-3 quicksort, heapsort fallback, insertion
      finish) over constant-time indexed access. *)

  val sort : lt:('a -> 'a -> bool) -> 'a Iter.t -> int -> unit
  (** Over a random-access iterator, through the O(1) {!Iter.get_at} and
      {!Iter.set_at}; a weaker iterator is stepped to each offset. *)
end

val forward_sort : lt:('a -> 'a -> bool) -> 'a Iter.t * 'a Iter.t -> unit
(** Stable mergesort for forward ranges (the "default algorithm" a
    linked list gets). *)

type sort_algorithm = Introsort_ra | Mergesort_fwd

val sort_algorithm_for : Iter.category -> sort_algorithm
(** Raises {!Iter.Category_violation} below ForwardIterator. *)

val sort_algorithm_name : sort_algorithm -> string

val sort : lt:('a -> 'a -> bool) -> 'a Iter.t * 'a Iter.t -> unit
(** Concept-dispatched: introsort for random access, mergesort
    otherwise. *)

val stable_sort : lt:('a -> 'a -> bool) -> 'a Iter.t * 'a Iter.t -> unit

val nth_element : lt:('a -> 'a -> bool) -> 'a Iter.t * 'a Iter.t -> int -> unit
(** Quickselect: position [n] receives its sorted-order element.
    Random access. *)
