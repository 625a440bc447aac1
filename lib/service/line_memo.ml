(* A server's decoded-line table: open addressing over parallel arrays,
   keyed by [Hashtbl.hash] of the line (one hash per line: the same
   number probes the table and marks the line seen) and compared with
   [String.equal]. A probe allocates nothing; a miss sets two bits of a
   byte string (no write barrier), and only an admission stores
   pointers. *)

type decoded = (int option * Request.t, string) result

let capacity = 1024
let slots = 2 * capacity (* load at most 1/2: probe runs stay short *)
let mask = slots - 1
let free = -1 (* [Hashtbl.hash] is never negative *)

(* Lines sighted once: a Bloom filter of two bits per line over the 30
   bits of its hash, 15 each. It forgets nothing until it is cleared,
   after [sightings] lines, so two lines that alternate are both
   admitted (a direct-mapped array of hashes would keep overwriting one
   with the other). At the clear at most 1 in 20 first sightings passes
   for a second, which admits a line early and costs nothing else. *)
let seen_bits = 1 lsl 15
let sightings = 4 * capacity

(* A static constant: the value slots' fill, never handed out. *)
let absent : decoded = Error ""

type t = {
  hashes : int array; (* slot -> its line's hash, or [free] *)
  lines : string array;
  values : decoded array;
  seen : Bytes.t; (* the filter of lines sighted once *)
  mutable sighted : int; (* lines filed in [seen] since its clear *)
  mutable count : int;
}

let create () =
  { hashes = Array.make slots free;
    lines = Array.make slots "";
    values = Array.make slots absent;
    seen = Bytes.make (seen_bits / 8) '\000';
    sighted = 0;
    count = 0 }

let length t = t.count

(* The slot holding [line], else the free slot that ends its probe run. *)
let rec slot t line h i =
  let k = Array.unsafe_get t.hashes i in
  if k = free || (k = h && String.equal (Array.unsafe_get t.lines i) line)
  then i
  else slot t line h ((i + 1) land mask)

let bit seen b =
  Char.code (Bytes.unsafe_get seen (b lsr 3)) land (1 lsl (b land 7)) <> 0

let set_bit seen b =
  let i = b lsr 3 in
  Bytes.unsafe_set seen i
    (Char.unsafe_chr
       (Char.code (Bytes.unsafe_get seen i) lor (1 lsl (b land 7))))

let sighted t h =
  bit t.seen (h land (seen_bits - 1))
  && bit t.seen ((h lsr 15) land (seen_bits - 1))

let sight t h =
  if t.sighted >= sightings then begin
    Bytes.fill t.seen 0 (Bytes.length t.seen) '\000';
    t.sighted <- 0
  end;
  set_bit t.seen (h land (seen_bits - 1));
  set_bit t.seen ((h lsr 15) land (seen_bits - 1));
  t.sighted <- t.sighted + 1

let reset t =
  for i = 0 to slots - 1 do
    Array.unsafe_set t.hashes i free
  done;
  Array.fill t.lines 0 slots "";
  Array.fill t.values 0 slots absent;
  t.count <- 0

let admit t line h i decoded =
  let i =
    if t.count < capacity then i
    else begin
      reset t;
      h land mask
    end
  in
  t.hashes.(i) <- h;
  t.lines.(i) <- line;
  t.values.(i) <- decoded;
  t.count <- t.count + 1

let decode t line =
  let h = Hashtbl.hash line in
  let i = slot t line h (h land mask) in
  if Array.unsafe_get t.hashes i <> free then Array.unsafe_get t.values i
  else
    match Wire.request_of_line line with
    | Ok _ as decoded ->
      if sighted t h then admit t line h i decoded else sight t h;
      decoded
    | Error _ as e -> e
