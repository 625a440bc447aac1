(* Consistent hashing: replicas own [vnodes] points each on a ring of
   hashes; a key belongs to the owner of the first point clockwise from
   the key's own hash. Digest (MD5) keeps placement deterministic across
   processes — no Hashtbl.hash, whose layout is not a contract. *)

(* The first 8 raw digest bytes: they compare lexicographically like
   the integer they encode, which is all ring order needs — and in the
   same order as their hex spelling, so placements match it exactly. *)
type position = string

let position s = String.sub (Digest.string s) 0 8

type t = {
  replicas : int list; (* ascending *)
  vnodes : int;
  points : (position * int) array; (* (hash, replica), sorted by hash *)
}

(* The points array is made over a constant pair, which is static data:
   a fill built at run time would be young, and [Array.make] over 256
   words with a young fill forces a minor collection. *)
let no_point = ("", 0)

let create ?(vnodes = 64) ~replicas () =
  if replicas = [] then invalid_arg "Hash_ring.create: no replicas";
  if vnodes < 1 then invalid_arg "Hash_ring.create: vnodes < 1";
  let replicas = List.sort_uniq compare replicas in
  let points = Array.make (vnodes * List.length replicas) no_point in
  List.iteri
    (fun k r ->
      for v = 0 to vnodes - 1 do
        points.((k * vnodes) + v) <-
          (position (Printf.sprintf "replica-%d#%d" r v), r)
      done)
    replicas;
  Array.sort compare points;
  { replicas; vnodes; points }

let replicas t = t.replicas

(* Elasticity: membership changes rebuild the ring from the new replica
   set. Point hashes depend only on (replica, vnode), so the rebuilt
   ring is bit-identical to [create] over the same set — and minimal
   movement is structural: a key changes owner iff the first point
   clockwise from it belongs to the joining (resp. leaving) replica, so
   exactly the keys on that replica's arcs move. *)
let add_replica t r =
  if List.mem r t.replicas then
    invalid_arg "Hash_ring.add_replica: replica already on the ring";
  create ~vnodes:t.vnodes ~replicas:(r :: t.replicas) ()

let remove_replica t r =
  if not (List.mem r t.replicas) then
    invalid_arg "Hash_ring.remove_replica: replica not on the ring";
  match List.filter (fun x -> x <> r) t.replicas with
  | [] -> invalid_arg "Hash_ring.remove_replica: cannot empty the ring"
  | rest -> create ~vnodes:t.vnodes ~replicas:rest ()

(* Index of the first point with hash >= [pos], wrapping to 0. *)
let locate t pos =
  let n = Array.length t.points in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if String.compare (fst t.points.(mid)) pos < 0 then lo := mid + 1
    else hi := mid
  done;
  if !lo = n then 0 else !lo

let shard_at t pos = snd t.points.(locate t pos)

let shard t key = shard_at t (position key)

let successors_at t pos =
  let n = Array.length t.points in
  let k = List.length t.replicas in
  let start = locate t pos in
  (* [out] doubles as the seen set: it holds at most [k] replicas *)
  let out = ref [] and found = ref 0 in
  let i = ref 0 in
  while !i < n && !found < k do
    let r = snd t.points.((start + !i) mod n) in
    if not (List.mem r !out) then begin
      out := r :: !out;
      incr found
    end;
    incr i
  done;
  List.rev !out

let successors t key = successors_at t (position key)

let spread t keys =
  let counts = Hashtbl.create 8 in
  List.iter (fun r -> Hashtbl.replace counts r 0) t.replicas;
  List.iter
    (fun k ->
      let r = shard t k in
      Hashtbl.replace counts r (Hashtbl.find counts r + 1))
    keys;
  List.map (fun r -> (r, Hashtbl.find counts r)) t.replicas
