(* The kernels: one specialised implementation per structure the
   taxonomy knows, with the dense kernels as the fallback every carrier
   reaches. The naive dense references they are checked against live
   with the tests, as equivalence oracles.

   Every kernel is a plain loop over arrays hoisted out of its inner
   loop, with int-typed bounds (see the hot-loop rule in Mat), and keeps
   the references' operation order, so each float result is
   bit-identical to the reference's. Indexing stays checked.

   Next to each kernel lives its exact step count — the number of
   inner-loop multiply-accumulate visits the kernel performs, computed
   from the packed structure alone. Step counts are what bench s6 gates
   on (they are quota-independent, unlike wall time) and what the
   dispatcher charges against the request budget, so the asymptotic
   claims in the concept declarations are checked numbers, not prose.

   Every dimension error names the actual mismatched shapes
   ("matvec: 3x4 * 5"), asserted verbatim by the tests. *)

let bad fmt = Printf.ksprintf invalid_arg fmt
let imin = Mat.imin
let imax = Mat.imax

let check_vec op (rows, cols) v =
  if cols <> Array.length v then
    bad "%s: %dx%d * %d" op rows cols (Array.length v)

(* ------------------------------------------------------------------ *)
(* Specialised matvec                                                  *)
(* ------------------------------------------------------------------ *)

let matvec_dense (m : Mat.dense) v =
  check_vec "matvec" (m.Mat.n_rows, m.Mat.n_cols) v;
  Mat.dense_check "matvec" m;
  let rows = m.Mat.n_rows and n = m.Mat.n_cols and d = m.Mat.d in
  let y = Array.make rows 0.0 in
  for i = 0 to rows - 1 do
    let row = i * n in
    let s = ref 0.0 in
    for j = 0 to n - 1 do
      s := !s +. (d.(row + j) *. v.(j))
    done;
    y.(i) <- !s
  done;
  y

let matvec_diagonal (m : Mat.diagonal) v =
  let n = m.Mat.dg_n and dg = m.Mat.dg in
  check_vec "matvec" (n, n) v;
  let y = Array.make n 0.0 in
  for i = 0 to n - 1 do
    y.(i) <- dg.(i) *. v.(i)
  done;
  y

let matvec_banded (m : Mat.banded) v =
  let n = m.Mat.bd_n and lo = m.Mat.bd_lo and hi = m.Mat.bd_hi in
  check_vec "matvec" (n, n) v;
  let w = lo + hi + 1 and bd = m.Mat.bd in
  let y = Array.make n 0.0 in
  for i = 0 to n - 1 do
    let band = (i * w) - i + lo in
    let s = ref 0.0 in
    for j = imax 0 (i - lo) to imin (n - 1) (i + hi) do
      s := !s +. (bd.(band + j) *. v.(j))
    done;
    y.(i) <- !s
  done;
  y

let matvec_triangular (m : Mat.triangular) v =
  let n = m.Mat.tr_n and tr = m.Mat.tr and upper = m.Mat.tr_upper in
  check_vec "matvec" (n, n) v;
  let y = Array.make n 0.0 in
  for i = 0 to n - 1 do
    let row = i * n in
    let s = ref 0.0 in
    for j = (if upper then i else 0) to if upper then n - 1 else i do
      s := !s +. (tr.(row + j) *. v.(j))
    done;
    y.(i) <- !s
  done;
  y

(* Each stored element a_ij (i > j) feeds both y_i and y_j: one visit,
   two multiply-accumulates — the step count is the n(n+1)/2 visits. *)
let matvec_symmetric (m : Mat.symmetric) v =
  let n = m.Mat.sy_n and sy = m.Mat.sy in
  check_vec "matvec" (n, n) v;
  let y = Array.make n 0.0 in
  for i = 0 to n - 1 do
    let row = i * (i + 1) / 2 and vi = v.(i) in
    y.(i) <- y.(i) +. (sy.(row + i) *. vi);
    for j = 0 to i - 1 do
      let x = sy.(row + j) in
      y.(i) <- y.(i) +. (x *. v.(j));
      y.(j) <- y.(j) +. (x *. vi)
    done
  done;
  y

let matvec_csr (m : Mat.csr) v =
  let rows = m.Mat.cs_rows and ptr = m.Mat.cs_ptr in
  let idx = m.Mat.cs_idx and vals = m.Mat.cs_val in
  check_vec "matvec" (rows, m.Mat.cs_cols) v;
  let y = Array.make rows 0.0 in
  for i = 0 to rows - 1 do
    let s = ref 0.0 in
    for p = ptr.(i) to ptr.(i + 1) - 1 do
      s := !s +. (vals.(p) *. v.(idx.(p)))
    done;
    y.(i) <- !s
  done;
  y

(* ------------------------------------------------------------------ *)
(* Specialised matmul (square, structure-closed products)              *)
(* ------------------------------------------------------------------ *)

(* Row i of c accumulates a_ik * row k of b over k in ascending order,
   skipping a zero a_ik. The row's nonzero a_ik are collected first and
   applied four at a time, each c_ij updated as
   (((c_ij + a0*b0j) + a1*b1j) + a2*b2j) + a3*b3j, the remainder one at
   a time: every element sees the reference's operations in the
   reference's order, so the bits are the same, with a quarter of the
   passes over the c row. *)
let matmul_dense (a : Mat.dense) (b : Mat.dense) =
  if a.Mat.n_cols <> b.Mat.n_rows then
    bad "matmul: %dx%d * %dx%d" a.Mat.n_rows a.Mat.n_cols b.Mat.n_rows
      b.Mat.n_cols;
  Mat.dense_check "matmul" a;
  Mat.dense_check "matmul" b;
  let m = a.Mat.n_rows and k = a.Mat.n_cols and n = b.Mat.n_cols in
  let ad = a.Mat.d and bd = b.Mat.d in
  let c = Mat.dense_create m n in
  let cd = c.Mat.d in
  (* the row's nonzero a_ik and the offsets of their b rows *)
  let av = Array.create_float k and brow = Array.make k 0 in
  for i = 0 to m - 1 do
    let arow = i * k and crow = i * n in
    let nz = ref 0 in
    for kk = 0 to k - 1 do
      let x = ad.(arow + kk) in
      if x <> 0.0 then begin
        av.(!nz) <- x;
        brow.(!nz) <- kk * n;
        incr nz
      end
    done;
    let q = ref 0 in
    while !q + 4 <= !nz do
      let a0 = av.(!q) and a1 = av.(!q + 1) in
      let a2 = av.(!q + 2) and a3 = av.(!q + 3) in
      let b0 = brow.(!q) and b1 = brow.(!q + 1) in
      let b2 = brow.(!q + 2) and b3 = brow.(!q + 3) in
      for j = 0 to n - 1 do
        cd.(crow + j) <-
          cd.(crow + j)
          +. (a0 *. bd.(b0 + j))
          +. (a1 *. bd.(b1 + j))
          +. (a2 *. bd.(b2 + j))
          +. (a3 *. bd.(b3 + j))
      done;
      q := !q + 4
    done;
    while !q < !nz do
      let a0 = av.(!q) and b0 = brow.(!q) in
      for j = 0 to n - 1 do
        cd.(crow + j) <- cd.(crow + j) +. (a0 *. bd.(b0 + j))
      done;
      incr q
    done
  done;
  c

let matmul_diagonal (a : Mat.diagonal) (b : Mat.diagonal) =
  let n = a.Mat.dg_n in
  if n <> b.Mat.dg_n then bad "matmul: %dx%d * %dx%d" n n b.Mat.dg_n b.Mat.dg_n;
  let da = a.Mat.dg and db = b.Mat.dg in
  let dg = Array.make n 0.0 in
  for i = 0 to n - 1 do
    dg.(i) <- da.(i) *. db.(i)
  done;
  { Mat.dg_n = n; dg }

(* The band widens: (lo_a + lo_b, hi_a + hi_b), clamped to the order. *)
let matmul_banded (a : Mat.banded) (b : Mat.banded) =
  if a.Mat.bd_n <> b.Mat.bd_n then
    bad "matmul: %dx%d * %dx%d" a.Mat.bd_n a.Mat.bd_n b.Mat.bd_n b.Mat.bd_n;
  let n = a.Mat.bd_n in
  let alo = a.Mat.bd_lo and ahi = a.Mat.bd_hi and ab = a.Mat.bd in
  let blo = b.Mat.bd_lo and bhi = b.Mat.bd_hi and bb = b.Mat.bd in
  let lo = imin (n - 1) (alo + blo) and hi = imin (n - 1) (ahi + bhi) in
  let w = lo + hi + 1 and wa = alo + ahi + 1 and wb = blo + bhi + 1 in
  let c = Array.make (n * w) 0.0 in
  for i = 0 to n - 1 do
    let arow = (i * wa) - i + alo in
    for j = imax 0 (i - lo) to imin (n - 1) (i + hi) do
      let s = ref 0.0 in
      let k0 = imax (imax 0 (i - alo)) (imax 0 (j - bhi)) in
      let k1 = imin (imin (n - 1) (i + ahi)) (imin (n - 1) (j + blo)) in
      for k = k0 to k1 do
        s := !s +. (ab.(arow + k) *. bb.((k * wb) + (j - k + blo)))
      done;
      c.((i * w) + (j - i + lo)) <- !s
    done
  done;
  { Mat.bd_n = n; bd_lo = lo; bd_hi = hi; bd = c }

(* ------------------------------------------------------------------ *)
(* Specialised solve                                                   *)
(* ------------------------------------------------------------------ *)

(* Gaussian elimination with partial pivoting. The pivot row and its
   diagonal entry are hoisted out of the elimination loop: no row at or
   above [col] changes inside it. *)
let solve_dense (m : Mat.dense) b =
  if m.Mat.n_rows <> m.Mat.n_cols then
    bad "solve: %dx%d not square" m.Mat.n_rows m.Mat.n_cols;
  check_vec "solve" (m.Mat.n_rows, m.Mat.n_cols) b;
  Mat.dense_check "solve" m;
  let n = m.Mat.n_rows in
  let a = Array.copy m.Mat.d in
  let x = Array.copy b in
  for col = 0 to n - 1 do
    let crow = col * n in
    let piv = ref col and best = ref (Float.abs a.(crow + col)) in
    for r = col + 1 to n - 1 do
      let cand = Float.abs a.((r * n) + col) in
      if cand > !best then begin
        piv := r;
        best := cand
      end
    done;
    let prow = !piv * n in
    if a.(prow + col) = 0.0 then bad "solve: singular at column %d" col;
    if !piv <> col then begin
      for j = 0 to n - 1 do
        let t = a.(crow + j) in
        a.(crow + j) <- a.(prow + j);
        a.(prow + j) <- t
      done;
      let t = x.(col) in
      x.(col) <- x.(!piv);
      x.(!piv) <- t
    end;
    let pivot = a.(crow + col) and xc = x.(col) in
    for r = col + 1 to n - 1 do
      let rrow = r * n in
      let f = a.(rrow + col) /. pivot in
      if f <> 0.0 then begin
        for j = col to n - 1 do
          a.(rrow + j) <- a.(rrow + j) -. (f *. a.(crow + j))
        done;
        x.(r) <- x.(r) -. (f *. xc)
      end
    done
  done;
  for i = n - 1 downto 0 do
    let row = i * n in
    let s = ref x.(i) in
    for j = i + 1 to n - 1 do
      s := !s -. (a.(row + j) *. x.(j))
    done;
    x.(i) <- !s /. a.(row + i)
  done;
  x

let solve_diagonal (m : Mat.diagonal) b =
  let n = m.Mat.dg_n and dg = m.Mat.dg in
  check_vec "solve" (n, n) b;
  for i = 0 to Array.length dg - 1 do
    if dg.(i) = 0.0 then bad "solve: singular at column %d" i
  done;
  let x = Array.make n 0.0 in
  for i = 0 to n - 1 do
    x.(i) <- b.(i) /. dg.(i)
  done;
  x

let solve_triangular (m : Mat.triangular) b =
  let n = m.Mat.tr_n and tr = m.Mat.tr in
  check_vec "solve" (n, n) b;
  let x = Array.copy b in
  for i = 0 to n - 1 do
    if tr.((i * n) + i) = 0.0 then bad "solve: singular at column %d" i
  done;
  if m.Mat.tr_upper then
    for i = n - 1 downto 0 do
      let row = i * n in
      let s = ref x.(i) in
      for j = i + 1 to n - 1 do
        s := !s -. (tr.(row + j) *. x.(j))
      done;
      x.(i) <- !s /. tr.(row + i)
    done
  else
    for i = 0 to n - 1 do
      let row = i * n in
      let s = ref x.(i) in
      for j = 0 to i - 1 do
        s := !s -. (tr.(row + j) *. x.(j))
      done;
      x.(i) <- !s /. tr.(row + i)
    done;
  x

(* ------------------------------------------------------------------ *)
(* Exact step counts                                                   *)
(* ------------------------------------------------------------------ *)

(* Inner-loop visits, computed from the structure parameters — exact
   trip counts of the loops above, not estimates. *)

let band_row_width ~n ~lo ~hi i = imin (n - 1) (i + hi) - imax 0 (i - lo) + 1

let matvec_steps = function
  | Mat.Dense m -> m.Mat.n_rows * m.Mat.n_cols
  | Mat.Diagonal m -> m.Mat.dg_n
  | Mat.Banded m ->
    let t = ref 0 in
    for i = 0 to m.Mat.bd_n - 1 do
      t := !t + band_row_width ~n:m.Mat.bd_n ~lo:m.Mat.bd_lo ~hi:m.Mat.bd_hi i
    done;
    !t
  | Mat.Triangular m -> m.Mat.tr_n * (m.Mat.tr_n + 1) / 2
  | Mat.Symmetric m -> m.Mat.sy_n * (m.Mat.sy_n + 1) / 2
  | Mat.Csr m -> Mat.nnz_csr m

let matmul_steps = function
  | Mat.Dense m -> m.Mat.n_rows * m.Mat.n_cols * m.Mat.n_cols
  | Mat.Diagonal m -> m.Mat.dg_n
  | Mat.Banded { Mat.bd_n = n; bd_lo = blo; bd_hi = bhi; _ } ->
    let lo = imin (n - 1) (2 * blo) and hi = imin (n - 1) (2 * bhi) in
    let t = ref 0 in
    for i = 0 to n - 1 do
      for j = imax 0 (i - lo) to imin (n - 1) (i + hi) do
        let k0 = imax (imax 0 (i - blo)) (imax 0 (j - bhi)) in
        let k1 = imin (imin (n - 1) (i + bhi)) (imin (n - 1) (j + blo)) in
        if k1 >= k0 then t := !t + (k1 - k0 + 1)
      done
    done;
    !t
  | (Mat.Triangular _ | Mat.Symmetric _ | Mat.Csr _) as m ->
    (* served by the dense fallback kernel *)
    let r, c = Mat.dims m in
    r * c * c

let solve_steps = function
  | Mat.Diagonal m -> m.Mat.dg_n
  | Mat.Triangular m -> m.Mat.tr_n * (m.Mat.tr_n + 1) / 2
  | (Mat.Dense _ | Mat.Banded _ | Mat.Symmetric _ | Mat.Csr _) as m ->
    (* elimination + back substitution on the dense fallback *)
    let n, _ = Mat.dims m in
    (n * n * n / 3) + (n * n)
