(** A server's decoded-line table: a bounded map from a wire line to
    its decoded request, so a line that arrives again skips
    {!Wire.request_of_line}.

    Decoding is a pure function of the line, so the table is not a
    content cache: it keeps no hit/miss statistics, is not listed among
    {!Dispatch.cache_names}, and serves with caching off too. A line is
    admitted on its second sighting (a Bloom filter of the hashes of
    the last 4 096 lines sighted once remembers the first), so a stream
    of distinct lines keeps almost none of them. Only lines that decode
    are kept: a line that fails is decoded afresh each time and keeps
    its exact error. The table holds at most {!capacity} lines and is
    emptied when it fills, like {!Gp_concepts.Check}'s verdict memo. *)

type t

val capacity : int
(** 1 024 lines. *)

val create : unit -> t
(** An empty table: three arrays of [2 * capacity] words, filled with
    immediates and static constants, and a 4 KB byte string, so making
    them forces no collection. *)

val decode : t -> string -> (int option * Request.t, string) result
(** [decode t line] is [Wire.request_of_line line]. A line the table
    holds is one hash and one [String.equal] away, and its answer is
    the [Ok] value decoded when it was admitted (physically the same),
    so a hit allocates nothing. *)

val length : t -> int
(** The number of lines held. *)
