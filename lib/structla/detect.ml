(* Automatic structure detection (the Stepanov release-note story: the
   library inspects the concrete matrix and picks the most refined
   structure it satisfies, and the kernel selection follows).

   The classification is sound by construction — every branch goes
   through the strict Mat packers, which refuse a representation the
   matrix does not satisfy exactly — and deterministic: one pass
   computes the bandwidths, symmetry and the nonzero count, then the
   most refined applicable structure wins in a fixed priority order. *)

module Tel = Gp_telemetry.Tel

type profile = {
  pr_lo : int; (* max sub-diagonal distance of a nonzero *)
  pr_hi : int; (* max super-diagonal distance of a nonzero *)
  pr_nnz : int;
  pr_symmetric : bool;
}

let profile (m : Mat.dense) =
  let n = m.Mat.n_rows and nc = m.Mat.n_cols and d = m.Mat.d in
  let lo = ref 0 and hi = ref 0 and nnz = ref 0 and sym = ref true in
  for i = 0 to n - 1 do
    let row = i * nc in
    for j = 0 to nc - 1 do
      let x = d.(row + j) in
      if x <> 0.0 then begin
        incr nnz;
        if i > j then lo := Mat.imax !lo (i - j)
        else hi := Mat.imax !hi (j - i)
      end;
      if j < n && j < i && x <> d.((j * nc) + i) then sym := false
    done
  done;
  { pr_lo = !lo; pr_hi = !hi; pr_nnz = !nnz;
    pr_symmetric = (!sym && m.Mat.n_rows = m.Mat.n_cols) }

(* Priority: diagonal, then triangular, then symmetric, then banded
   (band no wider than half the order), then CSR (at most quarter
   fill), then dense. The packers re-verify every claim. *)
let classify_quiet (m : Mat.dense) =
  let square = m.Mat.n_rows = m.Mat.n_cols in
  let n = m.Mat.n_rows in
  let p = profile m in
  let try_ opt k = match opt with Some r -> Some r | None -> k () in
  let attempt =
    if not square then
      if p.pr_nnz * 4 <= m.Mat.n_rows * m.Mat.n_cols then
        Some (Mat.Csr (Mat.pack_csr m))
      else None
    else
      try_
        (if p.pr_lo = 0 && p.pr_hi = 0 then
           Option.map (fun d -> Mat.Diagonal d) (Mat.pack_diagonal m)
         else None)
        (fun () ->
          try_
            (if p.pr_lo = 0 || p.pr_hi = 0 then
               Option.map (fun t -> Mat.Triangular t) (Mat.pack_triangular m)
             else None)
            (fun () ->
              try_
                (if p.pr_symmetric then
                   Option.map (fun s -> Mat.Symmetric s) (Mat.pack_symmetric m)
                 else None)
                (fun () ->
                  try_
                    (if p.pr_lo + p.pr_hi + 1 <= n / 2 then
                       Option.map
                         (fun b -> Mat.Banded b)
                         (Mat.pack_banded ~lo:p.pr_lo ~hi:p.pr_hi m)
                     else None)
                    (fun () ->
                      if p.pr_nnz * 4 <= n * n then
                        Some (Mat.Csr (Mat.pack_csr m))
                      else None))))
  in
  match attempt with Some r -> r | None -> Mat.Dense m

let classify m =
  Tel.with_span ~name:"structla.detect" @@ fun () ->
  let r = classify_quiet m in
  Tel.count "gp_structla_detect_total" 1
    ~labels:[ ("structure", Mat.structure_name r) ];
  Tel.attr "structure" (Mat.structure_name r);
  r
