(* The naive dense references the structla kernels are checked
   against: straightforward index arithmetic and element-wise
   initialisers, with nothing hoisted, so they stay obviously right. *)

module Mat = Gp_structla.Mat

let bad fmt = Printf.ksprintf invalid_arg fmt

let check_vec op (rows, cols) v =
  if cols <> Array.length v then
    bad "%s: %dx%d * %d" op rows cols (Array.length v)

let matvec_reference (m : Mat.dense) v =
  check_vec "matvec" (m.Mat.n_rows, m.Mat.n_cols) v;
  let n = m.Mat.n_cols in
  Array.init m.Mat.n_rows (fun i ->
      let s = ref 0.0 in
      for j = 0 to n - 1 do
        s := !s +. (m.Mat.d.((i * n) + j) *. v.(j))
      done;
      !s)

let matmul_reference (a : Mat.dense) (b : Mat.dense) =
  if a.Mat.n_cols <> b.Mat.n_rows then
    bad "matmul: %dx%d * %dx%d" a.Mat.n_rows a.Mat.n_cols b.Mat.n_rows
      b.Mat.n_cols;
  let m = a.Mat.n_rows and k = a.Mat.n_cols and n = b.Mat.n_cols in
  let c = Mat.dense_create m n in
  for i = 0 to m - 1 do
    for kk = 0 to k - 1 do
      let av = a.Mat.d.((i * k) + kk) in
      if av <> 0.0 then
        for j = 0 to n - 1 do
          c.Mat.d.((i * n) + j) <-
            c.Mat.d.((i * n) + j) +. (av *. b.Mat.d.((kk * n) + j))
        done
    done
  done;
  c

(* Gaussian elimination with partial pivoting; the dense solve oracle. *)
let solve_reference (m : Mat.dense) b =
  if m.Mat.n_rows <> m.Mat.n_cols then
    bad "solve: %dx%d not square" m.Mat.n_rows m.Mat.n_cols;
  check_vec "solve" (m.Mat.n_rows, m.Mat.n_cols) b;
  let n = m.Mat.n_rows in
  let a = Array.copy m.Mat.d in
  let x = Array.copy b in
  for col = 0 to n - 1 do
    let piv = ref col in
    for r = col + 1 to n - 1 do
      if Float.abs a.((r * n) + col) > Float.abs a.((!piv * n) + col) then
        piv := r
    done;
    if a.((!piv * n) + col) = 0.0 then bad "solve: singular at column %d" col;
    if !piv <> col then begin
      for j = 0 to n - 1 do
        let t = a.((col * n) + j) in
        a.((col * n) + j) <- a.((!piv * n) + j);
        a.((!piv * n) + j) <- t
      done;
      let t = x.(col) in
      x.(col) <- x.(!piv);
      x.(!piv) <- t
    end;
    for r = col + 1 to n - 1 do
      let f = a.((r * n) + col) /. a.((col * n) + col) in
      if f <> 0.0 then begin
        for j = col to n - 1 do
          a.((r * n) + j) <- a.((r * n) + j) -. (f *. a.((col * n) + j))
        done;
        x.(r) <- x.(r) -. (f *. x.(col))
      end
    done
  done;
  for i = n - 1 downto 0 do
    let s = ref x.(i) in
    for j = i + 1 to n - 1 do
      s := !s -. (a.((i * n) + j) *. x.(j))
    done;
    x.(i) <- !s /. a.((i * n) + i)
  done;
  x
