(* Matrix representations for the structure-aware kernels.

   One packed representation per structure the concept taxonomy knows
   about, plus the row-major dense fallback every structure can be
   expanded into. Packing never rounds: [to_dense] reproduces the source
   matrix bit-for-bit, which is what makes "the detector never claims a
   structure the matrix doesn't satisfy" a checkable equality.

   Generation is deterministic per (structure, n, seed): the serving
   layer ships only those three scalars over the wire and both the
   server and the replayer regenerate the same matrix, so response
   fingerprints stay comparable across processes. *)

type dense = { n_rows : int; n_cols : int; d : float array } (* row-major *)

type diagonal = { dg_n : int; dg : float array }

(* Row-packed band storage: row [i] keeps columns [i-lo .. i+hi] at
   offset [i*(lo+hi+1) + (j-i+lo)]; out-of-range slots stay 0. *)
type banded = { bd_n : int; bd_lo : int; bd_hi : int; bd : float array }

(* Full row-major storage with the dead triangle kept zero: the kernels
   iterate only the live triangle, so the step count — not the storage —
   carries the saving. *)
type triangular = { tr_n : int; tr_upper : bool; tr : float array }

(* Packed lower triangle: row [i] holds its first [i+1] entries at
   offset [i*(i+1)/2]. *)
type symmetric = { sy_n : int; sy : float array }

type csr = {
  cs_rows : int;
  cs_cols : int;
  cs_ptr : int array; (* length rows+1 *)
  cs_idx : int array;
  cs_val : float array;
}

type t =
  | Dense of dense
  | Diagonal of diagonal
  | Banded of banded
  | Triangular of triangular
  | Symmetric of symmetric
  | Csr of csr

(* ------------------------------------------------------------------ *)
(* Dense basics                                                        *)
(* ------------------------------------------------------------------ *)

(* The hot-loop rule for this library: without flambda a per-element
   closure boxes every float it returns, and [Stdlib.min]/[max] on ints
   compare polymorphically through a C call. The miss path (generate,
   detect, pack, expand, checksum and the kernels) therefore runs as
   plain loops over hoisted arrays with these int-typed bounds, and
   generation runs its own draw step inline (see the draw stream below)
   rather than a stdlib call per draw. Indexing stays checked. The miss
   path also stays in packed storage: generation,
   detection and the checksum visit stored entries only, and a packed
   matrix is expanded to n*n only where the result is dense-sized anyway
   (a dense kernel, or a detection that lands on another structure). *)
let imin (a : int) b = if a < b then a else b
let imax (a : int) b = if a > b then a else b

let dense_check op m =
  if Array.length m.d <> m.n_rows * m.n_cols then
    invalid_arg
      (Printf.sprintf "%s: %dx%d matrix holds %d entries" op m.n_rows m.n_cols
         (Array.length m.d))

let dense_create n_rows n_cols =
  { n_rows; n_cols; d = Array.make (n_rows * n_cols) 0.0 }

let dense_init n_rows n_cols f =
  let m = dense_create n_rows n_cols in
  for i = 0 to n_rows - 1 do
    for j = 0 to n_cols - 1 do
      m.d.((i * n_cols) + j) <- f i j
    done
  done;
  m

let dense_get m i j = m.d.((i * m.n_cols) + j)

let dense_equal a b =
  a.n_rows = b.n_rows && a.n_cols = b.n_cols && a.d = b.d

let dense_close ?(eps = 1e-9) a b =
  a.n_rows = b.n_rows && a.n_cols = b.n_cols
  && Array.for_all2 (fun x y -> Float.abs (x -. y) < eps) a.d b.d

let vec_close ?(eps = 1e-9) a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Float.abs (x -. y) < eps) a b

(* ------------------------------------------------------------------ *)
(* Structure names and registry carriers                               *)
(* ------------------------------------------------------------------ *)

let structure_name = function
  | Dense _ -> "dense"
  | Diagonal _ -> "diagonal"
  | Banded _ -> "banded"
  | Triangular _ -> "triangular"
  | Symmetric _ -> "symmetric"
  | Csr _ -> "csr"

let structure_names =
  [ "dense"; "diagonal"; "banded"; "triangular"; "symmetric"; "csr" ]

let known_structure s = List.mem s structure_names

(* The registry type name each representation checks against: one ground
   carrier per structure, declared by Decls. *)
let carrier = function
  | Dense _ -> "dmat"
  | Diagonal _ -> "diagmat"
  | Banded _ -> "bandmat"
  | Triangular _ -> "trimat"
  | Symmetric _ -> "symmat"
  | Csr _ -> "csrmat"

let dims = function
  | Dense m -> (m.n_rows, m.n_cols)
  | Diagonal m -> (m.dg_n, m.dg_n)
  | Banded m -> (m.bd_n, m.bd_n)
  | Triangular m -> (m.tr_n, m.tr_n)
  | Symmetric m -> (m.sy_n, m.sy_n)
  | Csr m -> (m.cs_rows, m.cs_cols)

let nnz_csr m = m.cs_ptr.(m.cs_rows)

let stored = function
  | Dense m -> m.n_rows * m.n_cols
  | Diagonal m -> m.dg_n
  | Banded { bd_n = n; bd_lo; bd_hi; _ } ->
    (* the diagonal plus each side's band, clipped at the corners *)
    let lo = imin bd_lo (n - 1) and hi = imin bd_hi (n - 1) in
    n + (n * lo) - (lo * (lo + 1) / 2) + (n * hi) - (hi * (hi + 1) / 2)
  | Triangular m -> m.tr_n * m.tr_n
  | Symmetric m -> m.sy_n * (m.sy_n + 1) / 2
  | Csr m -> nnz_csr m

(* ------------------------------------------------------------------ *)
(* Expansion and packing                                               *)
(* ------------------------------------------------------------------ *)

let to_dense = function
  | Dense m -> m
  | Diagonal { dg_n = n; dg } ->
    let m = dense_create n n in
    let d = m.d in
    for i = 0 to n - 1 do
      d.((i * n) + i) <- dg.(i)
    done;
    m
  | Banded { bd_n = n; bd_lo = lo; bd_hi = hi; bd } ->
    let w = lo + hi + 1 in
    let m = dense_create n n in
    let d = m.d in
    for i = 0 to n - 1 do
      let row = i * n and band = (i * w) - i + lo in
      for j = imax 0 (i - lo) to imin (n - 1) (i + hi) do
        d.(row + j) <- bd.(band + j)
      done
    done;
    m
  | Triangular { tr_n = n; tr; _ } ->
    { n_rows = n; n_cols = n; d = Array.sub tr 0 (n * n) }
  | Symmetric { sy_n = n; sy } ->
    let m = dense_create n n in
    let d = m.d in
    for i = 0 to n - 1 do
      let packed = i * (i + 1) / 2 in
      for j = 0 to i do
        let x = sy.(packed + j) in
        d.((i * n) + j) <- x;
        d.((j * n) + i) <- x
      done
    done;
    m
  | Csr { cs_rows; cs_cols; cs_ptr; cs_idx; cs_val } ->
    let m = dense_create cs_rows cs_cols in
    let d = m.d in
    for i = 0 to cs_rows - 1 do
      let row = i * cs_cols in
      for p = cs_ptr.(i) to cs_ptr.(i + 1) - 1 do
        d.(row + cs_idx.(p)) <- cs_val.(p)
      done
    done;
    m

(* Packers: [None] when the dense source does not satisfy the structure
   exactly — the detector's contract depends on this strictness. Every
   packer scans the whole matrix, so each claim is re-verified. *)

let pack_diagonal m =
  dense_check "pack_diagonal" m;
  if m.n_rows <> m.n_cols then None
  else
    let n = m.n_rows and d = m.d in
    let ok = ref true in
    for i = 0 to n - 1 do
      let row = i * n in
      for j = 0 to n - 1 do
        if i <> j && d.(row + j) <> 0.0 then ok := false
      done
    done;
    if not !ok then None
    else begin
      let dg = Array.make n 0.0 in
      for i = 0 to n - 1 do
        dg.(i) <- d.((i * n) + i)
      done;
      Some { dg_n = n; dg }
    end

let pack_banded ~lo ~hi m =
  dense_check "pack_banded" m;
  if m.n_rows <> m.n_cols || lo < 0 || hi < 0 then None
  else
    let n = m.n_rows and d = m.d in
    let w = lo + hi + 1 in
    let bd = Array.make (n * w) 0.0 in
    let ok = ref true in
    for i = 0 to n - 1 do
      let row = i * n and band = (i * w) - i + lo in
      let j0 = imax 0 (i - lo) and j1 = imin (n - 1) (i + hi) in
      for j = 0 to j0 - 1 do
        if d.(row + j) <> 0.0 then ok := false
      done;
      for j = j0 to j1 do
        bd.(band + j) <- d.(row + j)
      done;
      for j = j1 + 1 to n - 1 do
        if d.(row + j) <> 0.0 then ok := false
      done
    done;
    if !ok then Some { bd_n = n; bd_lo = lo; bd_hi = hi; bd } else None

let pack_triangular m =
  dense_check "pack_triangular" m;
  if m.n_rows <> m.n_cols then None
  else
    let n = m.n_rows and d = m.d in
    let zero_below = ref true and zero_above = ref true in
    for i = 0 to n - 1 do
      let row = i * n in
      for j = 0 to i - 1 do
        if d.(row + j) <> 0.0 then zero_below := false
      done;
      for j = i + 1 to n - 1 do
        if d.(row + j) <> 0.0 then zero_above := false
      done
    done;
    if !zero_below || !zero_above then
      Some { tr_n = n; tr_upper = !zero_below; tr = Array.copy d }
    else None

let pack_symmetric m =
  dense_check "pack_symmetric" m;
  if m.n_rows <> m.n_cols then None
  else
    let n = m.n_rows and d = m.d in
    let ok = ref true in
    for i = 0 to n - 1 do
      let row = i * n in
      for j = 0 to i - 1 do
        if d.(row + j) <> d.((j * n) + i) then ok := false
      done
    done;
    if not !ok then None
    else begin
      let sy = Array.make (n * (n + 1) / 2) 0.0 in
      for i = 0 to n - 1 do
        Array.blit d (i * n) sy (i * (i + 1) / 2) (i + 1)
      done;
      Some { sy_n = n; sy }
    end

(* Always succeeds: any matrix has a CSR form. *)
let pack_csr m =
  dense_check "pack_csr" m;
  let d = m.d and rows = m.n_rows and cols = m.n_cols in
  let nnz = ref 0 in
  for k = 0 to Array.length d - 1 do
    if d.(k) <> 0.0 then incr nnz
  done;
  let cs_ptr = Array.make (rows + 1) 0 in
  let cs_idx = Array.make (imax !nnz 1) 0 in
  let cs_val = Array.make (imax !nnz 1) 0.0 in
  let p = ref 0 in
  for i = 0 to rows - 1 do
    let row = i * cols in
    for j = 0 to cols - 1 do
      let x = d.(row + j) in
      if x <> 0.0 then begin
        cs_idx.(!p) <- j;
        cs_val.(!p) <- x;
        incr p
      end
    done;
    cs_ptr.(i + 1) <- !p
  done;
  { cs_rows = rows; cs_cols = cols; cs_ptr; cs_idx; cs_val }

(* Conversions the overload candidates use: a kernel guarded by a
   concept may legitimately receive any representation whose carrier
   models that concept (e.g. the banded kernel applied to a diagonal
   matrix when no diagonal candidate is registered). *)

let as_diagonal = function
  | Diagonal m -> Some m
  | m -> pack_diagonal (to_dense m)

let as_banded = function
  | Banded m -> Some m
  | Diagonal { dg_n; dg } ->
    Some { bd_n = dg_n; bd_lo = 0; bd_hi = 0; bd = Array.copy dg }
  | m ->
    let d = to_dense m in
    if d.n_rows <> d.n_cols then None
    else
      let n = d.n_rows and a = d.d in
      let lo = ref 0 and hi = ref 0 in
      for i = 0 to n - 1 do
        let row = i * n in
        for j = 0 to n - 1 do
          if a.(row + j) <> 0.0 then
            if i > j then lo := imax !lo (i - j) else hi := imax !hi (j - i)
        done
      done;
      pack_banded ~lo:!lo ~hi:!hi d

let as_triangular = function
  | Triangular m -> Some m
  | m -> pack_triangular (to_dense m)

let as_symmetric = function
  | Symmetric m -> Some m
  | m -> pack_symmetric (to_dense m)

let as_csr = function Csr m -> m | m -> pack_csr (to_dense m)

(* ------------------------------------------------------------------ *)
(* The draw stream                                                     *)
(* ------------------------------------------------------------------ *)

(* The generator draws from its own L64X128 LXM stream: the algorithm
   behind the standard library's [Random] states, seeded the same way,
   so the draws are the ones their [float st 2.0 -. 1.0] and [int st 20]
   give (the tests hold the two streams equal). Owning the step lets the
   drawing loop run it inline with the state in locals for a whole row:
   no boxed float per draw, no call per draw.

   The state is 32 bytes: the LCG increment [a] (odd), the LCG state [s]
   and the two xoroshiro words [x0], [x1] (each nonzero), in the order
   the stdlib serialises a [Random] state. *)
type stream = Bytes.t

let lcg_m = 0xd1342543de82ef95L
let mix_m = 0xdaba0b6eb09322e3L

(* The normalisation the stdlib applies to the four words of a state. *)
let stream_of_words a s x0 x1 =
  let st = Bytes.create 32 in
  Bytes.set_int64_le st 0 (Int64.logor a 1L);
  Bytes.set_int64_le st 8 s;
  Bytes.set_int64_le st 16 (if Int64.equal x0 0L then 1L else x0);
  Bytes.set_int64_le st 24 (if Int64.equal x1 0L then 2L else x1);
  st

let stream_of_state b =
  if String.length b <> 32 then
    invalid_arg
      (Printf.sprintf "Mat.stream_of_state: %d bytes, not 32"
         (String.length b));
  stream_of_words (String.get_int64_le b 0) (String.get_int64_le b 8)
    (String.get_int64_le b 16) (String.get_int64_le b 24)

(* The stdlib's [make seed]: the seed's ints as little-endian 64-bit
   words, digested twice with MD5 under the suffixes 1 and 2. *)
let stream seed =
  let n = Array.length seed in
  let b = Bytes.create ((8 * n) + 1) in
  Array.iteri (fun i x -> Bytes.set_int64_le b (8 * i) (Int64.of_int x)) seed;
  Bytes.set b (8 * n) '\001';
  let d1 = Digest.bytes b in
  Bytes.set b (8 * n) '\002';
  let d2 = Digest.bytes b in
  stream_of_words (String.get_int64_le d1 0) (String.get_int64_le d1 8)
    (String.get_int64_le d2 0) (String.get_int64_le d2 8)

(* The one drawing loop. Each step mixes s + x0 into the output (Lea's
   64-bit mixer), then advances the LCG and the xoroshiro128 halves. A
   float draw keeps the output's top 53 bits and redraws on 0 (the
   stdlib's rawfloat); they fit an [int], whose conversion to float is
   one instruction where [Int64.to_float] is a C call. The stdlib scales
   by 2^-53 and then by the bound 2.0; both products are exact, so one
   scaling by 2^-52 gives the same bits. A coin keeps the low 30 bits
   and redraws on the rejection zone of [int 20].

   [draw st ~coins dst off len diag] fills [dst.(off .. off+len-1)] in
   order: with uniform draws in [-1, 1), or with [coins], per cell a
   1-in-20 coin and on success a uniform draw, 0.0 on failure. When
   [diag >= 0] it leaves at [dst.(off+diag)] the sum of |x| over the
   other cells, added up in cell order from +0.0: the row sum a strictly
   dominant diagonal is made from. *)
let draw st ~coins dst off len diag =
  let a = Bytes.get_int64_le st 0 in
  let s = ref (Bytes.get_int64_le st 8) in
  let x0 = ref (Bytes.get_int64_le st 16) in
  let x1 = ref (Bytes.get_int64_le st 24) in
  (* whether the next output is the cell's value: always for uniform
     draws, once its coin came up for coin cells *)
  let value = ref (not coins) in
  let sum = ref 0.0 and k = ref 0 in
  while !k < len do
    let z = Int64.add !s !x0 in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 32)) mix_m in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 32)) mix_m in
    let z = Int64.logxor z (Int64.shift_right_logical z 32) in
    s := Int64.add (Int64.mul !s lcg_m) a;
    let q0 = !x0 in
    let q1 = Int64.logxor !x1 q0 in
    x0 :=
      Int64.logxor
        (Int64.logxor
           (Int64.logor (Int64.shift_left q0 24)
              (Int64.shift_right_logical q0 40))
           q1)
        (Int64.shift_left q1 16);
    x1 :=
      Int64.logor (Int64.shift_left q1 37) (Int64.shift_right_logical q1 27);
    if !value then begin
      let bits = Int64.to_int (Int64.shift_right_logical z 11) in
      if bits <> 0 then begin
        let x = (Float.of_int bits *. 0x1.p-52) -. 1.0 in
        dst.(off + !k) <- x;
        if !k <> diag then sum := !sum +. Float.abs x;
        value := not coins;
        incr k
      end
    end
    else begin
      let r = Int64.to_int z land 0x3FFF_FFFF in
      let v = r mod 20 in
      if r - v <= 0x3FFF_FFFF - 20 + 1 then
        if v = 0 then value := true
        else begin
          dst.(off + !k) <- 0.0;
          incr k
        end
    end
  done;
  if diag >= 0 then dst.(off + diag) <- !sum;
  Bytes.set_int64_le st 8 !s;
  Bytes.set_int64_le st 16 !x0;
  Bytes.set_int64_le st 24 !x1

let draw_uniform st dst = draw st ~coins:false dst 0 (Array.length dst) (-1)
let draw_sparse st dst = draw st ~coins:true dst 0 (Array.length dst) (-1)

(* ------------------------------------------------------------------ *)
(* Deterministic generation                                            *)
(* ------------------------------------------------------------------ *)

(* All generated matrices are made strictly diagonally dominant
   (a_ii = |row| sum + 1), so every structure is also solve-safe: the
   same (structure, n, seed) triple backs matvec, matmul and solve
   requests without a singularity caveat.

   Each structure is generated straight into its own storage, drawing
   exactly where, and in the row-major order in which, an element-wise
   initialiser of the dense matrix would: the matrices (and so every
   checksum) are fixed by (structure, n, seed), and a miss never builds
   the n*n array a packed structure avoids. Each row sum is added up by
   the loop that draws the row, over the stored entries in column
   order; the unstored entries are +0.0, and adding +0.0 leaves a
   non-negative sum unchanged, so every diagonal has the bits a dense
   row sum gives. Storage whose every cell is drawn is not zero-filled
   first. *)

(* The CSR rows are drawn into a per-domain scratch that keeps its
   largest size, then copied out at their exact length: the stored count
   is known only after the last coin flip, and growing the result arrays
   as the rows arrive would copy them over and over. *)
type scratch = { mutable sc_idx : int array; mutable sc_val : float array }

let csr_scratch =
  Domain.DLS.new_key (fun () -> { sc_idx = [||]; sc_val = [||] })

let reserve sc size =
  if Array.length sc.sc_idx < size then begin
    let cap = imax size (2 * Array.length sc.sc_idx) in
    let idx = Array.make cap 0 and vals = Array.make cap 0.0 in
    Array.blit sc.sc_idx 0 idx 0 (Array.length sc.sc_idx);
    Array.blit sc.sc_val 0 vals 0 (Array.length sc.sc_val);
    sc.sc_idx <- idx;
    sc.sc_val <- vals
  end

(* ~5% fill plus the dominant diagonal: sparse at every n >= 24. Every
   cell, the diagonal included, consumes its coin flip and, on success,
   its draw. A row is drawn in full into the free end of the scratch and
   compacted in place (each cell is read before a write can reach it);
   an off-diagonal draw of exactly 0.0 is not stored. *)
let generate_csr st n =
  let sc = Domain.DLS.get csr_scratch in
  let cs_ptr = Array.make (n + 1) 0 in
  let p = ref 0 in
  for i = 0 to n - 1 do
    reserve sc (!p + n);
    let idx = sc.sc_idx and vals = sc.sc_val in
    let start = !p in
    draw st ~coins:true vals start n (-1);
    let diag = ref 0 and s = ref 0.0 in
    for j = 0 to n - 1 do
      let x = vals.(start + j) in
      if j = i then begin
        diag := !p;
        idx.(!p) <- j;
        incr p
      end
      else if x <> 0.0 then begin
        idx.(!p) <- j;
        vals.(!p) <- x;
        s := !s +. Float.abs x;
        incr p
      end
    done;
    vals.(!diag) <- !s +. 1.0;
    cs_ptr.(i + 1) <- !p
  done;
  {
    cs_rows = n;
    cs_cols = n;
    cs_ptr;
    cs_idx = Array.sub sc.sc_idx 0 !p;
    cs_val = Array.sub sc.sc_val 0 !p;
  }

let generate ~structure ~n ~seed =
  if n < 1 then invalid_arg (Printf.sprintf "Mat.generate: n=%d < 1" n);
  let st = stream [| 0x57ac; seed; n; Hashtbl.hash structure |] in
  match structure with
  | "dense" ->
    let d = Array.create_float (n * n) in
    for i = 0 to n - 1 do
      let row = i * n in
      draw st ~coins:false d row n i;
      d.(row + i) <- d.(row + i) +. 1.0
    done;
    Some (Dense { n_rows = n; n_cols = n; d })
  | "diagonal" ->
    let dg = Array.create_float n in
    draw_uniform st dg;
    for i = 0 to n - 1 do
      dg.(i) <- 1.0 +. Float.abs dg.(i)
    done;
    Some (Diagonal { dg_n = n; dg })
  | "banded" ->
    (* half-bandwidth 4, clipped to the order: the same cells as the
       dense band |i - j| <= 4 *)
    let b = imin 4 (n - 1) in
    let w = (2 * b) + 1 in
    let bd = Array.make (n * w) 0.0 in
    for i = 0 to n - 1 do
      let band = (i * w) - i + b in
      let j0 = imax 0 (i - b) and j1 = imin (n - 1) (i + b) in
      draw st ~coins:false bd (band + j0) (j1 - j0 + 1) (i - j0);
      bd.(band + i) <- bd.(band + i) +. 1.0
    done;
    Some (Banded { bd_n = n; bd_lo = b; bd_hi = b; bd })
  | "triangular" ->
    let tr = Array.make (n * n) 0.0 in
    for i = 0 to n - 1 do
      let diag = (i * n) + i in
      draw st ~coins:false tr diag (n - i) 0;
      tr.(diag) <- tr.(diag) +. 1.0
    done;
    Some (Triangular { tr_n = n; tr_upper = true; tr })
  | "symmetric" ->
    (* the lower triangle row by row is the packed order. Row i's sum is
       its lower part, left in its diagonal slot when the row is drawn,
       then its upper part: the mirrored column i, added from each row
       below as that row is drawn, in column order *)
    let sy = Array.create_float (n * (n + 1) / 2) in
    for i = 0 to n - 1 do
      let packed = i * (i + 1) / 2 in
      draw st ~coins:false sy packed (i + 1) i;
      let diag_j = ref 0 in
      for j = 0 to i - 1 do
        sy.(!diag_j) <- sy.(!diag_j) +. Float.abs sy.(packed + j);
        diag_j := !diag_j + j + 2
      done
    done;
    for i = 0 to n - 1 do
      let diag = (i * (i + 3)) / 2 in
      sy.(diag) <- sy.(diag) +. 1.0
    done;
    Some (Symmetric { sy_n = n; sy })
  | "csr" -> Some (Csr (generate_csr st n))
  | _ -> None

let generate_vec ~n ~seed =
  let v = Array.create_float n in
  draw_uniform (stream [| 0xb0b; seed; n |]) v;
  v

(* ------------------------------------------------------------------ *)
(* Checksums                                                           *)
(* ------------------------------------------------------------------ *)

(* Digest of the exact IEEE bit patterns: float-deterministic kernels
   give replay-stable checksums. *)
let checksum_vec v =
  let b = Bytes.create (8 * Array.length v) in
  for i = 0 to Array.length v - 1 do
    Bytes.set_int64_le b (8 * i) (Int64.bits_of_float v.(i))
  done;
  Digest.to_hex (Digest.bytes b)

let checksum_dense m = checksum_vec m.d

(* The same digest as [checksum_dense (to_dense m)]: the stored entries'
   bits go straight to their row-major slots of a zeroed buffer, whose
   zero bytes are the bits of the unstored +0.0 entries. *)
let checksum = function
  | Dense m -> checksum_dense m
  | m ->
    let r, c = dims m in
    let b = Bytes.make (8 * r * c) '\000' in
    (match m with
    | Dense _ -> ()
    | Diagonal { dg_n = n; dg } ->
      for i = 0 to n - 1 do
        Bytes.set_int64_le b (8 * ((i * n) + i)) (Int64.bits_of_float dg.(i))
      done
    | Banded { bd_n = n; bd_lo = lo; bd_hi = hi; bd } ->
      let w = lo + hi + 1 in
      for i = 0 to n - 1 do
        let row = i * n and band = (i * w) - i + lo in
        for j = imax 0 (i - lo) to imin (n - 1) (i + hi) do
          Bytes.set_int64_le b (8 * (row + j)) (Int64.bits_of_float bd.(band + j))
        done
      done
    | Triangular { tr_n = n; tr; _ } ->
      for k = 0 to (n * n) - 1 do
        Bytes.set_int64_le b (8 * k) (Int64.bits_of_float tr.(k))
      done
    | Symmetric { sy_n = n; sy } ->
      for i = 0 to n - 1 do
        let packed = i * (i + 1) / 2 in
        for j = 0 to i do
          let x = Int64.bits_of_float sy.(packed + j) in
          Bytes.set_int64_le b (8 * ((i * n) + j)) x;
          Bytes.set_int64_le b (8 * ((j * n) + i)) x
        done
      done
    | Csr { cs_rows; cs_cols; cs_ptr; cs_idx; cs_val } ->
      for i = 0 to cs_rows - 1 do
        let row = i * cs_cols in
        for p = cs_ptr.(i) to cs_ptr.(i + 1) - 1 do
          Bytes.set_int64_le b (8 * (row + cs_idx.(p)))
            (Int64.bits_of_float cs_val.(p))
        done
      done);
    Digest.to_hex (Digest.bytes b)

let pp ppf m =
  let r, c = dims m in
  Fmt.pf ppf "%s %dx%d" (structure_name m) r c
