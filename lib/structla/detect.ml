(* Automatic structure detection (the Stepanov release-note story: the
   library inspects the concrete matrix and picks the most refined
   structure it satisfies, and the kernel selection follows).

   One pass over the stored entries computes the bandwidths, symmetry
   and the nonzero count; the most refined applicable structure then
   wins in a fixed priority order. The classification is sound by
   construction — a new representation is only ever built by the strict
   Mat packers, which refuse one the matrix does not satisfy exactly —
   and it depends only on the dense matrix a representation stands for:
   a packed input has the profile of its expansion, so
   [classify m = classify (Dense (to_dense m))]. When the answer is the
   input's own structure the input comes back as it is, so a generated
   packed matrix is detected in O(stored), never expanded. *)

module Tel = Gp_telemetry.Tel

type profile = {
  pr_lo : int; (* max sub-diagonal distance of a nonzero *)
  pr_hi : int; (* max super-diagonal distance of a nonzero *)
  pr_nnz : int;
  pr_symmetric : bool;
}

(* Mat.imax, defined here so that the profile loops inline it: the dev
   profile compiles with -opaque, which keeps a call into another module
   a call. *)
let imax (a : int) b = if a > b then a else b

let profile_dense (m : Mat.dense) =
  let n = m.Mat.n_rows and nc = m.Mat.n_cols and d = m.Mat.d in
  let lo = ref 0 and hi = ref 0 and nnz = ref 0 and sym = ref (n = nc) in
  for i = 0 to n - 1 do
    let row = i * nc in
    for j = 0 to nc - 1 do
      let x = d.(row + j) in
      if x <> 0.0 then begin
        incr nnz;
        if i > j then lo := imax !lo (i - j)
        else hi := imax !hi (j - i)
      end;
      (* the mirror is read only until the first asymmetry *)
      if !sym && j < i && x <> d.((j * nc) + i) then sym := false
    done
  done;
  { pr_lo = !lo; pr_hi = !hi; pr_nnz = !nnz; pr_symmetric = !sym }

(* A CSR the profile can read entry by entry: pointers that start at 0
   and never fall, and strictly increasing in-range columns per row.
   Anything else (duplicates, unsorted rows) is profiled through its
   expansion, which is what it stands for. *)
let csr_well_formed (c : Mat.csr) =
  let rows = c.Mat.cs_rows and ptr = c.Mat.cs_ptr and idx = c.Mat.cs_idx in
  Array.length ptr = rows + 1
  && ptr.(0) = 0
  && ptr.(rows) <= Array.length idx
  && ptr.(rows) <= Array.length c.Mat.cs_val
  &&
  let ok = ref true in
  for i = 0 to rows - 1 do
    if ptr.(i + 1) < ptr.(i) then ok := false
    else
      for p = ptr.(i) to ptr.(i + 1) - 1 do
        let j = idx.(p) in
        if j < 0 || j >= c.Mat.cs_cols || (p > ptr.(i) && j <= idx.(p - 1))
        then ok := false
      done
  done;
  !ok

(* Entry (i, j) of a well-formed CSR by binary search in row i. *)
let csr_get (c : Mat.csr) i j =
  let idx = c.Mat.cs_idx in
  let lo = ref c.Mat.cs_ptr.(i) and hi = ref (c.Mat.cs_ptr.(i + 1) - 1) in
  let found = ref (-1) in
  while !found < 0 && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let k = idx.(mid) in
    if k = j then found := mid
    else if k < j then lo := mid + 1
    else hi := mid - 1
  done;
  if !found < 0 then 0.0 else c.Mat.cs_val.(!found)

(* The profile of [to_dense m], from the stored entries only. Symmetry
   compares each stored entry with its mirror, which is 0.0 where it is
   not stored; pairs with neither entry stored are 0.0 = 0.0. *)
let profile (m : Mat.t) =
  match m with
  | Mat.Dense d -> profile_dense d
  | Mat.Triangular { Mat.tr_n = n; tr; _ } ->
    profile_dense { Mat.n_rows = n; n_cols = n; d = tr }
  | Mat.Diagonal { Mat.dg_n = n; dg } ->
    let nnz = ref 0 in
    for i = 0 to n - 1 do
      if dg.(i) <> 0.0 then incr nnz
    done;
    { pr_lo = 0; pr_hi = 0; pr_nnz = !nnz; pr_symmetric = true }
  | Mat.Banded { Mat.bd_n = n; bd_lo = blo; bd_hi = bhi; bd } ->
    let w = blo + bhi + 1 in
    let lo = ref 0 and hi = ref 0 and nnz = ref 0 and sym = ref true in
    for i = 0 to n - 1 do
      let band = (i * w) - i + blo in
      for j = imax 0 (i - blo) to Mat.imin (n - 1) (i + bhi) do
        let x = bd.(band + j) in
        if x <> 0.0 then begin
          incr nnz;
          if i > j then lo := imax !lo (i - j) else hi := imax !hi (j - i)
        end;
        if i > j then begin
          (* the mirror (j, i) is stored iff i - j <= hi *)
          let mirror =
            if i - j <= bhi then bd.((j * w) - j + blo + i) else 0.0
          in
          if x <> mirror then sym := false
        end
        else if j - i > blo && x <> 0.0 then sym := false
      done
    done;
    { pr_lo = !lo; pr_hi = !hi; pr_nnz = !nnz; pr_symmetric = !sym }
  | Mat.Symmetric { Mat.sy_n = n; sy } ->
    let lo = ref 0 and nnz = ref 0 and sym = ref true in
    for i = 0 to n - 1 do
      let packed = i * (i + 1) / 2 in
      for j = 0 to i - 1 do
        let x = sy.(packed + j) in
        if x <> 0.0 then begin
          nnz := !nnz + 2;
          lo := imax !lo (i - j)
        end;
        (* the mirror is the same stored value: unequal only if NaN *)
        if x <> x then sym := false
      done;
      if sy.(packed + i) <> 0.0 then incr nnz
    done;
    { pr_lo = !lo; pr_hi = !lo; pr_nnz = !nnz; pr_symmetric = !sym }
  | Mat.Csr c when not (csr_well_formed c) -> profile_dense (Mat.to_dense m)
  | Mat.Csr ({ Mat.cs_rows = rows; cs_cols = cols; cs_ptr; cs_idx; cs_val } as c)
    ->
    let square = rows = cols in
    let lo = ref 0 and hi = ref 0 and nnz = ref 0 and sym = ref square in
    for i = 0 to rows - 1 do
      for p = cs_ptr.(i) to cs_ptr.(i + 1) - 1 do
        let j = cs_idx.(p) and x = cs_val.(p) in
        if x <> 0.0 then begin
          incr nnz;
          if i > j then lo := imax !lo (i - j) else hi := imax !hi (j - i)
        end;
        if !sym && i <> j && x <> csr_get c j i then sym := false
      done
    done;
    { pr_lo = !lo; pr_hi = !hi; pr_nnz = !nnz; pr_symmetric = !sym }

(* The most refined structure a profile admits. Priority: diagonal, then
   triangular, then symmetric, then banded (band no wider than half the
   order), then CSR (at most quarter fill), then dense; a non-square
   matrix is CSR or dense. *)
type target =
  | To_diagonal
  | To_triangular of bool (* upper *)
  | To_symmetric
  | To_banded of int * int
  | To_csr
  | To_dense

let target (rows, cols) p =
  if rows <> cols then
    if p.pr_nnz * 4 <= rows * cols then To_csr else To_dense
  else if p.pr_lo = 0 && p.pr_hi = 0 then To_diagonal
  else if p.pr_lo = 0 || p.pr_hi = 0 then To_triangular (p.pr_lo = 0)
  else if p.pr_symmetric then To_symmetric
  else if p.pr_lo + p.pr_hi + 1 <= rows / 2 then To_banded (p.pr_lo, p.pr_hi)
  else if p.pr_nnz * 4 <= rows * rows then To_csr
  else To_dense

(* The profile of a square n*n matrix in full row-major storage (a Dense
   or a Triangular's [d]), read only until its [target] is decided, with
   the number of entries read. The order puts the entries that decide the
   common answers first: the two off-diagonal corners (band and
   symmetry in two reads), the strict lower triangle (what an upper
   triangle needs all of), then the diagonal and the strict upper
   triangle. The counters only grow, and symmetry only falls, so the
   scan stops once no unread entry can change [target]:
   - dense: lo > 0, hi > 0, symmetry refuted, the band wider than n/2
     and nnz > n*n/4;
   - upper triangular: the strict lower triangle read, all zero, and
     hi > 0.
   A scan cut short returns a partial profile with the exact one's
   target; a scan that runs to the end returns the exact profile. *)
(* Whether an n*n profile is past every bound [target] checks before
   [To_dense]: no unread entry can make it anything else. *)
let[@inline] dense_decided n nnz lo hi sym =
  nnz * 4 > n * n && (not sym) && lo > 0 && hi > 0 && lo + hi + 1 > n / 2

let scan_profile n (d : float array) =
  let lo = ref 0 and hi = ref 0 and nnz = ref 0 and sym = ref true in
  let reads = ref 0 and decided = ref false in
  if n >= 2 then begin
    let below = d.((n - 1) * n) and above = d.(n - 1) in
    reads := 2;
    if below <> 0.0 then begin
      incr nnz;
      lo := n - 1
    end;
    if above <> 0.0 then begin
      incr nnz;
      hi := n - 1
    end;
    if below <> above then sym := false
  end;
  (* the strict lower triangle, less the corner; the mirror is read only
     until the first asymmetry *)
  let i = ref 1 in
  while (not !decided) && !i < n do
    let row = !i * n in
    let j = ref (if !i = n - 1 then 1 else 0) in
    while (not !decided) && !j < !i do
      let x = d.(row + !j) in
      incr reads;
      if x <> 0.0 then begin
        incr nnz;
        lo := imax !lo (!i - !j)
      end;
      if !sym then begin
        incr reads;
        if x <> d.((!j * n) + !i) then sym := false
      end;
      if dense_decided n !nnz !lo !hi !sym then decided := true;
      incr j
    done;
    incr i
  done;
  (* the diagonal and the strict upper triangle, less the corner *)
  let i = ref 0 in
  while (not !decided) && !i < n do
    let row = !i * n in
    let last = if !i = 0 && n >= 2 then n - 2 else n - 1 in
    let j = ref !i in
    while (not !decided) && !j <= last do
      if !lo = 0 && !hi > 0 then decided := true
      else begin
        let x = d.(row + !j) in
        incr reads;
        if x <> 0.0 then begin
          incr nnz;
          hi := imax !hi (!j - !i)
        end;
        if dense_decided n !nnz !lo !hi !sym then decided := true;
        incr j
      end
    done;
    incr i
  done;
  ({ pr_lo = !lo; pr_hi = !hi; pr_nnz = !nnz; pr_symmetric = !sym }, !reads)

(* The packers re-verify every claim; one refusing the profile of the
   matrix it scans would be a detector bug. *)
let packed what = function
  | Some r -> r
  | None -> invalid_arg ("Detect: the " ^ what ^ " packer refused its profile")

let build target (d : Mat.dense) =
  match target with
  | To_diagonal -> Mat.Diagonal (packed "diagonal" (Mat.pack_diagonal d))
  | To_triangular _ ->
    Mat.Triangular (packed "triangular" (Mat.pack_triangular d))
  | To_symmetric -> Mat.Symmetric (packed "symmetric" (Mat.pack_symmetric d))
  | To_banded (lo, hi) ->
    Mat.Banded (packed "banded" (Mat.pack_banded ~lo ~hi d))
  | To_csr -> Mat.Csr (Mat.pack_csr d)
  | To_dense -> Mat.Dense d

(* Whether [m] already is what [build target (to_dense m)] would return,
   structurally: the right structure and parameters, exact-length
   storage, zero dead band slots, and a CSR with no explicit zeros. *)
let is_own target (m : Mat.t) p =
  match (target, m) with
  | To_diagonal, Mat.Diagonal { Mat.dg_n; dg } -> Array.length dg = dg_n
  | To_triangular upper, Mat.Triangular { Mat.tr_n; tr_upper; tr } ->
    upper = tr_upper && Array.length tr = tr_n * tr_n
  | To_symmetric, Mat.Symmetric { Mat.sy_n; sy } ->
    Array.length sy = sy_n * (sy_n + 1) / 2
  | To_banded (lo, hi), Mat.Banded { Mat.bd_n = n; bd_lo; bd_hi; bd } ->
    let w = lo + hi + 1 in
    lo = bd_lo && hi = bd_hi
    && Array.length bd = n * w
    &&
    let dead_zero = ref true in
    for i = 0 to n - 1 do
      let band = (i * w) - i + lo in
      for j = i - lo to -1 do
        if bd.(band + j) <> 0.0 then dead_zero := false
      done;
      for j = n to i + hi do
        if bd.(band + j) <> 0.0 then dead_zero := false
      done
    done;
    !dead_zero
  | To_csr, Mat.Csr c ->
    let nnz = Mat.nnz_csr c in
    csr_well_formed c && nnz = p.pr_nnz
    && Array.length c.Mat.cs_idx = Mat.imax nnz 1
    && Array.length c.Mat.cs_val = Mat.imax nnz 1
    && (nnz > 0 || (c.Mat.cs_idx.(0) = 0 && c.Mat.cs_val.(0) = 0.0))
  | _ -> false

let classify_reads m =
  Tel.with_span ~name:"structla.detect" @@ fun () ->
  let p, reads =
    match m with
    | Mat.Dense { Mat.n_rows = n; n_cols; d } when n = n_cols ->
      scan_profile n d
    | Mat.Triangular { Mat.tr_n = n; tr; _ } -> scan_profile n tr
    | _ -> (profile m, Mat.stored m)
  in
  let t = target (Mat.dims m) p in
  let r =
    match m with
    | Mat.Dense d -> ( match t with To_dense -> m | t -> build t d)
    | _ -> if is_own t m p then m else build t (Mat.to_dense m)
  in
  Tel.attr "structure" (Mat.structure_name r);
  let rows, cols = Mat.dims m in
  (r, if r == m then reads else reads + (rows * cols))

let classify m = fst (classify_reads m)
