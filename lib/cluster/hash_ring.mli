(** Consistent hashing over replica ids.

    Each replica owns [vnodes] points on a digest ring; a content key is
    served by the owner of the first point at or after the key's hash
    (wrapping). Purely deterministic — points come from [Digest.string]
    of the replica's name — so the same (replicas, vnodes) pair always
    produces the same placement, and adding or removing one replica
    moves only the keys on its arcs (property-tested). *)

type t

val create : ?vnodes:int -> replicas:int list -> unit -> t
(** [replicas] are node ids (any ints, typically [1..n]); [vnodes]
    defaults to 64 points per replica. Raises [Invalid_argument] on an
    empty replica list or [vnodes < 1]. *)

val replicas : t -> int list
(** The replica ids, ascending. *)

val add_replica : t -> int -> t
(** The ring with one more replica, at the same [vnodes]. Identical to
    {!create} over the union — so only the keys on the newcomer's arcs
    change owner ({i minimal movement}: [shard] differs on a key iff the
    new ring shards it to the newcomer). Raises [Invalid_argument] if
    the replica is already present. *)

val remove_replica : t -> int -> t
(** The ring without one replica. Only the departed replica's keys
    change owner: [shard] differs on a key iff the old ring sharded it
    to the leaver. Raises [Invalid_argument] if the replica is absent
    or is the last one. *)

val shard : t -> string -> int
(** The replica owning this content key. *)

val successors : t -> string -> int list
(** All replicas in ring order starting at the key's owner, each
    appearing once — the failover walk: entry [0] is {!shard}, entry
    [k] is the k-th distinct replica clockwise from it. *)

type position
(** A key's place on the ring: 8 raw digest bytes. Ring membership does
    not change it, so a caller that routes one key many times computes
    it once. *)

val position : string -> position

val shard_at : t -> position -> int
(** {!shard} of the key at this position. *)

val successors_at : t -> position -> int list
(** {!successors} of the key at this position. *)

val spread : t -> string list -> (int * int) list
(** [(replica, keys owned)] for a key population, ascending by replica
    id — the balance diagnostic. *)
