(** First-class checked iterators with STL categories.

    An iterator is an immutable value denoting a position in a sequence;
    copying one saves the position (the multipass capability of Forward
    and stronger categories). Category determines available operations;
    unsupported operations raise {!Category_violation} — the runtime
    analogue of a concept-check failure.

    An iterator is a small position record pointing at its container's
    operations {!table}: the concept map as a value, built once per
    container, holding the category and the read, write, next, prev,
    jump and validity operations. Making or stepping a position builds
    no closures.

    Iterators are {e checked}: containers version their state and
    iterators capture the version, so use after an invalidating mutation
    raises {!Invalidated} — the dynamic counterpart of gp_stllint's
    static analysis. *)

type category = Input | Output | Forward | Bidirectional | Random_access

val category_name : category -> string

val rank : category -> int
(** Refinement rank along the input chain; [Output] is off-chain. *)

val satisfies : required:category -> category -> bool
(** Does an iterator of this category provide the capabilities of
    [required]? *)

exception Category_violation of string
exception Invalidated of string
exception Singular of string
exception Multipass_violation of string

type 'a t
(** A position in a sequence of ['a]. *)

(** {2 Operations} *)

val equal : 'a t -> 'a t -> bool
(** Position equality (same container, same position). *)

val category : 'a t -> category
val get : 'a t -> 'a
val set : 'a t -> 'a -> unit
val step : 'a t -> 'a t
val back : 'a t -> 'a t
val jump : 'a t -> int -> 'a t

val get_at : 'a t -> int -> 'a
(** [get_at it n] reads the element [n] places from [it] in O(1)
    without materialising an iterator (random access only). [get_at it]
    checks the category once, so each access through it is one call —
    what lets the dispatched introsort run at array speed. *)

val set_at : 'a t -> int -> 'a -> unit

val difference : 'a t -> 'a t -> int option
(** [Some (last - first)] in O(1) when [first] is random access and both
    are positions in one container; [None] otherwise. *)

(** {2 Special iterators} *)

val singular : unit -> 'a t
(** Points nowhere; any use raises {!Singular}. *)

val is_singular : 'a t -> bool

val restrict : category -> 'a t -> 'a t
(** Downgrade the advertised category (and strip the corresponding
    capabilities); raises [Invalid_argument] on an attempt to
    strengthen. Used to drive algorithms with weaker iterators over the
    same data. *)

(** {2 Input streams (semantic archetype)} *)

val of_stream : (int -> 'a option) -> 'a t * 'a t
(** [(first, last)] single-pass input iterators over a generator
    ([None] = end of stream). This is the {e semantic archetype} of the
    Input Iterator concept (paper Section 3.1): once any copy advances
    past a position, re-reading it raises {!Multipass_violation}. *)

val of_list : 'a list -> 'a t * 'a t

(** {2 Output iterators} *)

val output_to : ('a -> unit) -> 'a t
(** A write-only iterator calling [sink] on every {!set} — the building
    block for back-inserters and ostream-style output. Reading raises
    {!Category_violation}. *)

(** {2 Instrumentation} *)

type counters = { mutable derefs : int; mutable steps : int }

val counters : unit -> counters

val counting : counters -> 'a t -> 'a t
(** Count the iterator's dereferences and steps (and those of every
    iterator stepped from it) — operation counts reported alongside
    wall-clock time in the benches. *)

(** {2 Container tables (used by container implementors)} *)

type ('a, 'p) table
(** The operations of one container over positions of type ['p]. *)

val table :
  ?version:(unit -> int) ->
  ?valid:('p -> int -> unit) ->
  ?write:('p -> 'a -> unit) ->
  ?prev:('p -> 'p) ->
  ?jump:('p -> int -> 'p) ->
  ?read_at:('p -> int -> int -> 'a) ->
  ?write_at:('p -> int -> int -> 'a -> unit) ->
  ?offset:('p -> int) ->
  category ->
  read:('p -> 'a) ->
  next:('p -> 'p) ->
  ('a, 'p) table
(** A container's table, built once per container. Only the operations
    its category supports are ever called, so the optional ones may be
    left out below it. [version ()] is the container's current version
    ([0] by default) and [valid pos ver] raises {!Invalidated} if a
    position made in version [ver] is stale. [read], [write], [next],
    [prev] and [jump pos n] raise {!Singular} off the ends ([jump] may
    land on [[begin, end]]); [read_at pos ver n] and [write_at] check
    validity and access the element [n] places from [pos] in
    [[begin, end)]; [offset pos] is a random-access position's index. *)

val make : ('a, 'p) table -> 'p -> 'a t
(** The iterator at a position, in the container's current version. *)

val position : ('a, 'p) table -> 'a t -> 'p option
(** The position of an iterator made over this table (or a
    {!restrict}ed or {!counting} copy of one); [None] for a foreign
    iterator. Raises {!Invalidated} if the position is stale. *)
