module C = Gp_concepts.Complexity

(* ------------------------------------------------------------------ *)
(* structla kernels: generate a structured matrix deterministically,   *)
(* classify it, and read the exact inner-loop step count               *)
(* ------------------------------------------------------------------ *)

let mat structure n =
  match Gp_structla.Mat.generate ~structure ~n ~seed:7 with
  | Some (Gp_structla.Mat.Banded _ as b) ->
    (* keep the generated band (half-width 4 on every rung): the op
       under test is the banded kernel's O(n·b) bound, and at tiny n the
       detector prefers denser classifications for a width-9 band, which
       would silently swap the kernel (and its bound) mid-sweep *)
    b
  | Some g -> Gp_structla.Detect.classify g
  | None -> invalid_arg ("Catalog: unknown structure " ^ structure)

let kernel_steps kind structure n =
  let m = mat structure n in
  float_of_int
    (match kind with
    | `Matvec -> Gp_structla.Kernels.matvec_steps m
    | `Matmul -> Gp_structla.Kernels.matmul_steps m
    | `Solve -> Gp_structla.Kernels.solve_steps m)

(* Auxiliary size variables of the mixed declared bounds, read off the
   same generated matrix the measure uses. *)
let band_width n =
  match Gp_structla.Mat.as_banded (mat "banded" n) with
  | Some b -> float_of_int (b.Gp_structla.Mat.bd_lo + b.Gp_structla.Mat.bd_hi + 1)
  | None -> 1.0

let csr_nnz n =
  float_of_int
    (Gp_structla.Mat.nnz_csr (Gp_structla.Mat.as_csr (mat "csr" n)))

(* The served numeric miss end to end (Select.miss, as Dispatch runs
   it): elements touched — generator writes, the entries the detector
   actually reads, and kernel steps. A diagonal miss stores n entries,
   so the whole miss is O(n); generating or scanning an n*n array on the
   way would make it n^2. A dense or triangular miss is O(n^2) whatever
   the detector stops early on: it writes n^2 cells. *)
let served_miss_cells op structure n =
  let reg = Gp_concepts.Registry.create () in
  Gp_structla.Decls.declare reg;
  match
    Gp_structla.Select.miss reg (Gp_structla.Select.create ()) ~op ~structure
      ~n ~seed:7
  with
  | Ok m -> float_of_int m.Gp_structla.Select.ms_cells
  | Error e -> invalid_arg ("Catalog: " ^ e)

(* ------------------------------------------------------------------ *)
(* concept engine: rewrite/guard counts off the rewrite span          *)
(* ------------------------------------------------------------------ *)

(* A right-leaning chain of n identity applications: the identity-
   elimination rule fires once per node, so engine step and guard-probe
   counts scale linearly with the chain length. [count] names the
   attribute of the rewrite's span to read. *)
let rewrite_counter count n =
  let open Gp_simplicissimus in
  let reg = Gp_concepts.Registry.create () in
  List.iter (Gp_concepts.Registry.declare_concept reg)
    Gp_algebra.Decls.all_concepts;
  Gp_algebra.Decls.declare_carrier reg ~elem:"u" ~op:"+" "AbelianGroup";
  let insts = Instances.create reg in
  Instances.add insts ~ty:"u" ~op:"+" ~identity:(Expr.VInt 0) ~inverse:"neg"
    ();
  let rec build k =
    if k = 0 then Expr.Var ("x", "u")
    else Expr.Op ("+", "u", [ build (k - 1); Expr.Ident ("u", "+") ])
  in
  let e = build n in
  Gp_telemetry.Tel.with_installed (fun sink ->
      ignore (Engine.rewrite ~rules:Rules.builtin ~insts e);
      let sp =
        List.find
          (fun sp ->
            sp.Gp_telemetry.Trace.sp_name = "simplicissimus.rewrite")
          (Gp_telemetry.Trace.spans sink.Gp_telemetry.Tel.trace)
      in
      float_of_string (List.assoc count sp.Gp_telemetry.Trace.sp_attrs))

(* Closure over a refinement chain of height n: the obligation count is
   the explicit-constraint burden Section 2.3 quantifies. *)
let closure_obligations n =
  let open Gp_concepts in
  let reg = Registry.create () in
  Registry.declare_type reg "P";
  for i = 0 to n - 1 do
    let refines =
      if i = 0 then []
      else [ (Printf.sprintf "K%d" (i - 1), [ Ctype.Var "X" ]) ]
    in
    Registry.declare_concept reg
      (Concept.make ~params:[ "X" ] ~refines
         (Printf.sprintf "K%d" i)
         [ Concept.axiom "t" "true" ])
  done;
  (* the default max_depth (8) is tuned for real taxonomies; the sweep
     needs the full chain, so bound recursion by the chain height *)
  float_of_int
    (List.length
       (Propagate.closure ~max_depth:(n + 1) reg
          (Printf.sprintf "K%d" (n - 1))
          [ Ctype.Named "P" ]))

(* The seed's linear find_model scan (the s2 baseline), with entries
   examined counted: two hits (first/last declared model) plus one miss
   that must walk the whole list. *)
let registry_scan n =
  let open Gp_concepts in
  let reg = Registry.create () in
  Registry.declare_concept reg
    (Concept.make ~params:[ "X" ] "K" [ Concept.axiom "t" "true" ]);
  for i = 0 to n - 1 do
    let ty = Printf.sprintf "T%d" i in
    Registry.declare_type reg ty;
    Registry.declare_model reg "K" [ Ctype.Named ty ]
  done;
  let args_equal a1 a2 =
    List.length a1 = List.length a2 && List.for_all2 Ctype.equal a1 a2
  in
  let examined = ref 0 in
  let scan args =
    ignore
      (List.find_opt
         (fun m ->
           incr examined;
           String.equal m.Registry.mo_concept "K"
           && args_equal m.Registry.mo_args args)
         reg.Registry.models)
  in
  scan [ Ctype.Named "T0" ];
  scan [ Ctype.Named (Printf.sprintf "T%d" (n - 1)) ];
  scan [ Ctype.Named "Tmissing" ];
  float_of_int !examined

(* ------------------------------------------------------------------ *)
(* service: LRU churn                                                 *)
(* ------------------------------------------------------------------ *)

(* Fill a capacity-n cache with 2n distinct keys: 2n misses and n
   evictions, zero hits — total stats traffic 3n. *)
let lru_churn n =
  let open Gp_service in
  let cache = Lru.create ~capacity:n "complexity-obs" in
  for i = 0 to (2 * n) - 1 do
    let key = string_of_int i in
    match Lru.find cache key with
    | Some _ -> ()
    | None -> Lru.add cache key i
  done;
  let st = Lru.stats cache in
  float_of_int (st.Lru.st_hits + st.Lru.st_misses + st.Lru.st_evictions)

(* ------------------------------------------------------------------ *)
(* distsim: leader-election message counts in simulated time          *)
(* ------------------------------------------------------------------ *)

let lcr_messages n =
  let open Gp_distsim in
  let uids = Array.init n (fun i -> n - i) in
  let r = Algorithms.Lcr.run ~uids (Topology.ring_unidirectional n) in
  float_of_int r.Engine.metrics.Engine.messages_sent

let hs_messages n =
  let open Gp_distsim in
  let uids = Array.init n (fun i -> n - i) in
  let r = Algorithms.Hs.run ~uids (Topology.ring n) in
  float_of_int r.Engine.metrics.Engine.messages_sent

(* ------------------------------------------------------------------ *)
(* the catalog                                                        *)
(* ------------------------------------------------------------------ *)

let oracle_name = "oracle_matvec_dense"

let no_env = Sweep.env_const 1.0

let op ?(expect_violation = false) ?(env = no_env) ~category ~declared name
    measure =
  {
    Sweep.op_name = name;
    op_category = category;
    op_var = "n";
    op_declared = declared;
    op_expect_violation = expect_violation;
    op_measure = measure;
    op_env = env;
  }

let ops () =
  [
    op ~category:"structla" ~declared:(C.linear "n") "matvec_diagonal"
      (kernel_steps `Matvec "diagonal");
    op ~category:"structla"
      ~declared:(C.mul (C.linear "n") (C.linear "b"))
      ~env:(fun n v -> if String.equal v "b" then band_width n else 1.0)
      "matvec_banded"
      (kernel_steps `Matvec "banded");
    op ~category:"structla" ~declared:(C.linear "nnz")
      ~env:(fun n v -> if String.equal v "nnz" then csr_nnz n else 1.0)
      "matvec_csr"
      (kernel_steps `Matvec "csr");
    op ~category:"structla" ~declared:(C.quadratic "n") "matvec_dense"
      (kernel_steps `Matvec "dense");
    op ~category:"structla" ~declared:(C.linear "n") "matmul_diagonal"
      (kernel_steps `Matmul "diagonal");
    op ~category:"structla" ~declared:(C.cubic "n") "matmul_dense"
      (kernel_steps `Matmul "dense");
    op ~category:"structla" ~declared:(C.linear "n") "solve_diagonal"
      (kernel_steps `Solve "diagonal");
    op ~category:"structla" ~declared:(C.quadratic "n") "solve_triangular"
      (kernel_steps `Solve "triangular");
    op ~category:"structla" ~declared:(C.cubic "n") "solve_dense"
      (kernel_steps `Solve "dense");
    op ~category:"service" ~declared:(C.linear "n")
      "served_matvec_diagonal_miss"
      (served_miss_cells Gp_structla.Select.Matvec "diagonal");
    op ~category:"service" ~declared:(C.quadratic "n")
      "served_matvec_dense_miss"
      (served_miss_cells Gp_structla.Select.Matvec "dense");
    op ~category:"service" ~declared:(C.quadratic "n")
      "served_matvec_triangular_miss"
      (served_miss_cells Gp_structla.Select.Matvec "triangular");
    op ~category:"engine" ~declared:(C.linear "n") "rewrite_steps"
      (rewrite_counter "steps");
    op ~category:"engine" ~declared:(C.linear "n") "rewrite_guard_probes"
      (rewrite_counter "guard_probes");
    op ~category:"concepts" ~declared:(C.linear "n") "closure_obligations"
      closure_obligations;
    op ~category:"concepts" ~declared:(C.linear "n") "registry_scan_linear"
      registry_scan;
    op ~category:"service" ~declared:(C.linear "n") "lru_churn" lru_churn;
    op ~category:"distsim" ~declared:(C.quadratic "n") "lcr_messages"
      lcr_messages;
    op ~category:"distsim" ~declared:(C.n_log_n "n") "hs_messages" hs_messages;
    (* the planted violator: same measure as matvec_dense, but declared
       O(n) — the harness must call this out *)
    op ~category:"oracle" ~declared:(C.linear "n") ~expect_violation:true
      oracle_name
      (kernel_steps `Matvec "dense");
  ]

let find name =
  List.find_opt (fun o -> String.equal o.Sweep.op_name name) (ops ())
