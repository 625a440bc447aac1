(** The growable ring buffer under {!Varray} and {!Deque}, with the one
    random-access iterator table both share. A vector is a ring whose
    head stays at slot 0. Any structural mutation bumps [version], which
    invalidates every outstanding iterator. *)

type 'a t = {
  mutable data : 'a array;
  mutable head : int;  (** slot of element 0 *)
  mutable len : int;
  mutable version : int;
  dummy : 'a;  (** fill value for unused slots *)
  name : string;  (** the container module, for [Invalid_argument] *)
  ops : ('a, int) Iter.table Lazy.t;  (** built on the first iterator *)
}

val create :
  name:string -> noun:string -> stale:string -> dummy:'a -> 'a list -> 'a t
(** A ring holding the list. Its iterators' {!Iter.Singular} messages
    name the container [noun]; a stale one raises {!Iter.Invalidated}
    with [stale]. *)

val reserve : 'a t -> int -> unit
(** Room for [n] elements, at least doubling; element 0 moves to slot
    0. *)

val length : 'a t -> int
val get : 'a t -> int -> 'a
val set : 'a t -> int -> 'a -> unit
val push_back : 'a t -> 'a -> unit
val pop_back : 'a t -> unit
val to_list : 'a t -> 'a list

val iter_at : 'a t -> int -> 'a Iter.t
val begin_ : 'a t -> 'a Iter.t
val end_ : 'a t -> 'a Iter.t
