(* Dense rectangular matrices and the CLACRM mixed-precision kernel
   (Section 2.4).

   CLACRM multiplies a complex matrix by a real matrix. Because the scalar
   type of a vector space is not determined by the vector type, the
   multiplication C[i][j] += A[i][k] * B[k][j] may use the cheap
   complex-times-real product (2 real multiplies) instead of promoting B to
   complex and paying the full complex product (4 multiplies + 2 adds).
   [gemm_mixed] is the CLACRM path; [gemm_promoted] is the baseline a
   scalar-as-associated-type design forces. *)

type cmat = {
  rows : int;
  cols : int;
  (* split storage: better locality for the kernels *)
  re : float array;
  im : float array;
}

type rmat = { r_rows : int; r_cols : int; data : float array }

let cmat_create rows cols =
  { rows; cols; re = Array.make (rows * cols) 0.0;
    im = Array.make (rows * cols) 0.0 }

let rmat_create r_rows r_cols =
  { r_rows; r_cols; data = Array.make (r_rows * r_cols) 0.0 }

let cmat_init rows cols f =
  let m = cmat_create rows cols in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      let z = f i j in
      m.re.((i * cols) + j) <- Complexf.re z;
      m.im.((i * cols) + j) <- Complexf.im z
    done
  done;
  m

let rmat_init r_rows r_cols f =
  let m = rmat_create r_rows r_cols in
  for i = 0 to r_rows - 1 do
    for j = 0 to r_cols - 1 do
      m.data.((i * r_cols) + j) <- f i j
    done
  done;
  m

let cmat_get m i j =
  Complexf.make m.re.((i * m.cols) + j) m.im.((i * m.cols) + j)

let cmat_close ?(eps = 1e-9) a b =
  a.rows = b.rows && a.cols = b.cols
  && Array.for_all2 (fun x y -> Float.abs (x -. y) < eps) a.re b.re
  && Array.for_all2 (fun x y -> Float.abs (x -. y) < eps) a.im b.im

(* C = A (complex, m x k) * B (real, k x n) — the CLACRM kernel: each inner
   product step costs 2 real multiply-adds. *)
let gemm_mixed a b =
  if a.cols <> b.r_rows then
    invalid_arg
      (Printf.sprintf "gemm_mixed: %dx%d * %dx%d" a.rows a.cols b.r_rows
         b.r_cols);
  let m = a.rows and k = a.cols and n = b.r_cols in
  let c = cmat_create m n in
  for i = 0 to m - 1 do
    for kk = 0 to k - 1 do
      let are = a.re.((i * k) + kk) and aim = a.im.((i * k) + kk) in
      let brow = kk * n in
      for j = 0 to n - 1 do
        let bv = b.data.(brow + j) in
        c.re.((i * n) + j) <- c.re.((i * n) + j) +. (are *. bv);
        c.im.((i * n) + j) <- c.im.((i * n) + j) +. (aim *. bv)
      done
    done
  done;
  c

(* Baseline: promote B to complex, then full complex GEMM — 4 multiplies +
   2 adds per step. Same result, roughly twice the floating-point work. *)
let promote b =
  let m = cmat_create b.r_rows b.r_cols in
  Array.blit b.data 0 m.re 0 (Array.length b.data);
  m

let gemm_complex a b =
  if a.cols <> b.rows then
    invalid_arg
      (Printf.sprintf "gemm_complex: %dx%d * %dx%d" a.rows a.cols b.rows
         b.cols);
  let m = a.rows and k = a.cols and n = b.cols in
  let c = cmat_create m n in
  for i = 0 to m - 1 do
    for kk = 0 to k - 1 do
      let are = a.re.((i * k) + kk) and aim = a.im.((i * k) + kk) in
      let brow = kk * n in
      for j = 0 to n - 1 do
        let bre = b.re.(brow + j) and bim = b.im.(brow + j) in
        c.re.((i * n) + j) <-
          c.re.((i * n) + j) +. ((are *. bre) -. (aim *. bim));
        c.im.((i * n) + j) <-
          c.im.((i * n) + j) +. ((are *. bim) +. (aim *. bre))
      done
    done
  done;
  c

let gemm_promoted a b = gemm_complex a (promote b)

(* Operation counts per element-product, for the reproduction report. *)
let flops_mixed ~m ~k ~n = 2 * 2 * m * k * n (* 2 mul + 2 add *)
let flops_promoted ~m ~k ~n = (4 + 4) * m * k * n (* 4 mul + 4 add *)
