(* First-class iterators with STL categories.

   An iterator is an immutable value denoting a position in a sequence;
   copying one is free and saves the position (the "multipass" capability of
   Forward and stronger iterators). Category determines which operations are
   available; calling an unsupported operation raises [Category_violation] —
   the runtime analogue of a concept-check failure.

   A position is a record of three fields: its container's operations table,
   the position proper (an index, a list node, a stream offset) and the
   container version it was made in. The table is the concept map as a
   value (Siek and Lumsdaine's dictionary built once per model): one per
   container, shared by all its positions, so stepping allocates one small
   record and builds no closures. [restrict] and [counting] copy the table
   with one field changed, once, not once per step.

   Iterators are *checked*: each captures the owning container's version at
   creation, and containers bump their version on invalidating mutations.
   Using an invalidated iterator raises [Invalidated] — the dynamic
   counterpart of the static invalidation analysis in gp_stllint. *)

type category = Input | Output | Forward | Bidirectional | Random_access

let category_name = function
  | Input -> "InputIterator"
  | Output -> "OutputIterator"
  | Forward -> "ForwardIterator"
  | Bidirectional -> "BidirectionalIterator"
  | Random_access -> "RandomAccessIterator"

(* Refinement rank along the input chain; Output is off-chain. *)
let rank = function
  | Input -> 0
  | Forward -> 1
  | Bidirectional -> 2
  | Random_access -> 3
  | Output -> -1

(* [satisfies ~required cat]: does an iterator of category [cat] provide the
   capabilities of [required]? *)
let satisfies ~required cat =
  match required with
  | Output -> cat = Output || rank cat >= rank Forward
  | r -> rank cat >= rank r && rank cat >= 0

exception Category_violation of string
exception Invalidated of string
exception Singular of string
exception Multipass_violation of string

type counters = { mutable derefs : int; mutable steps : int }

let counters () = { derefs = 0; steps = 0 }

(* Which operations a table supports follows from [cat]: the generic
   operations below check it before calling a field, so a field beyond the
   category is never reached. [key] identifies the container (positions of
   one container are comparable and extractable); [tally] lists the
   counters of [counting]. *)
type ('a, 'p) table = {
  cat : category;
  key : 'p Type.Id.t;
  tally : counters list;
  version : unit -> int;
  valid : 'p -> int -> unit; (* raises Invalidated on a stale position *)
  read : 'p -> 'a;
  write : 'p -> 'a -> unit;
  next : 'p -> 'p;
  prev : 'p -> 'p;
  jump : 'p -> int -> 'p; (* to a position in [begin, end] *)
  read_at : 'p -> int -> int -> 'a; (* position, version, offset *)
  write_at : 'p -> int -> int -> 'a -> unit;
  offset : 'p -> int; (* the index of a random-access position *)
}

type 'a t = It : { ops : ('a, 'p) table; pos : 'p; ver : int } -> 'a t

let beyond _ = invalid_arg "Iter: operation beyond the table's category"

let table ?(version = fun () -> 0) ?(valid = fun _ _ -> ())
    ?(write = fun _ -> beyond) ?(prev = beyond) ?(jump = fun _ -> beyond)
    ?(read_at = fun _ _ -> beyond) ?(write_at = fun _ _ _ -> beyond)
    ?(offset = beyond) cat ~read ~next =
  { cat; key = Type.Id.make (); tally = []; version; valid; read; write; next;
    prev; jump; read_at; write_at; offset }

let make ops pos = It { ops; pos; ver = ops.version () }

let position (type p) (ops : (_, p) table) (It r) : p option =
  match Type.Id.provably_equal ops.key r.ops.key with
  | Some Type.Equal ->
    r.ops.valid r.pos r.ver;
    Some r.pos
  | None -> None

let equal (It a) (It b) =
  match Type.Id.provably_equal a.ops.key b.ops.key with
  | Some Type.Equal -> a.pos == b.pos
  | None -> false

let category (It r) = r.ops.cat

let violation cat what =
  raise
    (Category_violation
       (Printf.sprintf "%s does not support %s" (category_name cat) what))

let tick_derefs = function
  | [] -> ()
  | cs -> List.iter (fun c -> c.derefs <- c.derefs + 1) cs

let tick_steps = function
  | [] -> ()
  | cs -> List.iter (fun c -> c.steps <- c.steps + 1) cs

let get (It r) =
  tick_derefs r.ops.tally;
  r.ops.valid r.pos r.ver;
  r.ops.read r.pos

let set (It r) v =
  let cat = r.ops.cat in
  if not (cat = Output || rank cat >= rank Forward) then
    violation cat "writing";
  r.ops.valid r.pos r.ver;
  r.ops.write r.pos v

let step (It r) =
  tick_steps r.ops.tally;
  r.ops.valid r.pos r.ver;
  It { r with pos = r.ops.next r.pos }

let back (It r) =
  if rank r.ops.cat < rank Bidirectional then
    violation r.ops.cat "stepping back";
  tick_steps r.ops.tally;
  r.ops.valid r.pos r.ver;
  It { r with pos = r.ops.prev r.pos }

let random_only cat = if cat <> Random_access then violation cat "random access"

let jump (It r) n =
  random_only r.ops.cat;
  tick_steps r.ops.tally;
  r.ops.valid r.pos r.ver;
  It { r with pos = r.ops.jump r.pos n }

(* Partially applied to an iterator, [get_at] and [set_at] check the
   category once and hand back the table's indexed access itself, so each
   access costs one call — the array-speed path the dispatched introsort
   runs on. *)
let get_at (It r) =
  random_only r.ops.cat;
  match r.ops.tally with
  | [] -> r.ops.read_at r.pos r.ver
  | tally ->
    fun n ->
      tick_derefs tally;
      r.ops.read_at r.pos r.ver n

let set_at (It r) =
  random_only r.ops.cat;
  match r.ops.tally with
  | [] -> r.ops.write_at r.pos r.ver
  | tally ->
    fun n v ->
      tick_derefs tally;
      r.ops.write_at r.pos r.ver n v

let difference (It first) (It last) =
  if first.ops.cat <> Random_access then None
  else
    match Type.Id.provably_equal first.ops.key last.ops.key with
    | Some Type.Equal ->
      Some (first.ops.offset last.pos - first.ops.offset first.pos)
    | None -> None

(* Downgrade an iterator's advertised category — used to hand a
   random-access iterator to an algorithm as if it were weaker, which is how
   the dispatch tests and benches compare algorithm variants on identical
   data. The capabilities follow the category. *)
let restrict cat (It r) =
  if rank cat > rank r.ops.cat then
    invalid_arg "Iter.restrict: cannot strengthen an iterator";
  It { r with ops = { r.ops with cat } }

(* Instrumented copy: counts dereferences and steps through a shared cell.
   Used by the benches to report operation counts alongside wall-clock time
   (the taxonomy work wants "detailed actual performance measurements"). *)
let counting c (It r) =
  It { r with ops = { r.ops with tally = c :: r.ops.tally } }

(* The singular iterator: points nowhere; any use other than assignment
   raises. Erase results and default-initialised iterators are singular.
   All singular iterators share one table, so they compare equal. *)
let singular_key : int Type.Id.t = Type.Id.make ()

let singular_ops =
  { cat = Input; key = singular_key; tally = []; version = (fun () -> 0);
    valid = (fun _ _ -> ());
    read =
      (fun _ -> raise (Singular "use of a singular iterator: dereference"));
    write = (fun _ -> beyond);
    next = (fun _ -> raise (Singular "use of a singular iterator: increment"));
    prev = beyond; jump = (fun _ -> beyond); read_at = (fun _ _ -> beyond);
    write_at = (fun _ _ _ -> beyond); offset = beyond }

let singular () = It { ops = singular_ops; pos = -1; ver = 0 }
let is_singular (It r) = Type.Id.uid r.ops.key = Type.Id.uid singular_key

(* A single-pass input iterator over a generator function: the semantic
   archetype of the Input Iterator concept (paper Section 3.1). All copies
   share the stream; once any copy advances past position [p], dereferencing
   another copy at or before [p] raises [Multipass_violation]. STLlint uses
   exactly this to expose max_element's undeclared multipass requirement.
   A position past the end of the stream is -1. *)
let of_stream src =
  let watermark = ref 0 in (* highest position consumed *)
  let at pos = if src pos = None then -1 else pos in
  let ops =
    table Input
      ~read:(fun pos ->
        if pos < 0 then raise (Singular "dereference of past-the-end iterator");
        if pos < !watermark then
          raise
            (Multipass_violation
               (Printf.sprintf
                  "input iterator re-reads position %d after the stream \
                   advanced to %d (single-pass)"
                  pos !watermark));
        match src pos with Some v -> v | None -> assert false)
      ~next:(fun pos ->
        if pos < 0 then raise (Singular "increment of past-the-end iterator");
        if pos < !watermark then
          raise
            (Multipass_violation
               (Printf.sprintf
                  "input iterator re-traverses position %d (single-pass)" pos));
        watermark := max !watermark (pos + 1);
        at (pos + 1))
  in
  (make ops (at 0), make ops (-1))

let of_list xs =
  let arr = Array.of_list xs in
  of_stream (fun i -> if i < Array.length arr then Some arr.(i) else None)

(* An output iterator writing through [sink] — the building block for
   back_inserter and ostream-style iterators. Stepping yields a fresh
   position; reading raises (write-only). *)
let output_to sink =
  make
    (table Output
       ~read:(fun _ ->
         raise (Category_violation "OutputIterator does not support reading"))
       ~write:(fun _ v -> sink v)
       ~next:succ)
    0
