(* The benchmark: one section per figure/claim of the paper (experiment
   ids from DESIGN.md). Every wall number and allocation count comes
   from [Harness]: wall keys are medians over shuffled trials with their
   quartile spread, null under --quick; counts are exact either way.
   Shape-only experiments print the series the paper implies.
   EXPERIMENTS.md records paper-statement vs the numbers printed here.

     dune exec bench/main.exe                      # everything
     dune exec bench/main.exe -- f5 c1             # selected experiments
     dune exec bench/main.exe -- --quick --json F  # no timing; results to F *)

let record = Harness.record
let record_wall = Harness.record_wall
let job = Harness.job

let pp_ns ppf ns =
  if Float.is_nan ns then Fmt.string ppf "n/a"
  else if ns < 1e3 then Fmt.pf ppf "%.0f ns" ns
  else if ns < 1e6 then Fmt.pf ppf "%.2f us" (ns /. 1e3)
  else if ns < 1e9 then Fmt.pf ppf "%.2f ms" (ns /. 1e6)
  else Fmt.pf ppf "%.2f s" (ns /. 1e9)

let ns_str ns = Fmt.str "%a" pp_ns ns

(* A wall value and its spread through [fmt], or "(--quick)" when it
   was not measured. *)
let wall_str fmt (median, iqr) =
  if Float.is_nan median then "(--quick)" else Printf.sprintf fmt median iqr

(* The median ns of job [k] in [w]. *)
let ns w k = fst (Harness.get w k)

let line = String.make 74 '='
let thin = String.make 74 '-'

let section id title =
  Fmt.pr "@.%s@.%s — %s@.%s@." line id title thin

(* ------------------------------------------------------------------ *)
(* F1/F2: graph concepts (Figs. 1 and 2)                               *)
(* ------------------------------------------------------------------ *)

let f1_f2 () =
  section "F1/F2" "Graph Edge and Incidence Graph concepts (Figs. 1-2)";
  let open Gp_concepts in
  let reg = Registry.create () in
  Gp_graph.Decls.declare reg;
  let n x = Ctype.Named x in
  let checks =
    [ ("GraphEdge", "adjacency_list::edge");
      ("IncidenceGraph", "adjacency_list");
      ("IncidenceGraph", "adjacency_matrix");
      ("VertexListGraph", "adjacency_list");
      ("AdjacencyMatrixGraph", "adjacency_matrix") ]
  in
  Fmt.pr "%-24s %-26s %s@." "concept" "type" "models?";
  List.iter
    (fun (c, ty) ->
      Fmt.pr "%-24s %-26s %b@." c ty (Check.models reg c [ n ty ]))
    checks;
  Fmt.pr "negative: adjacency_list vs AdjacencyMatrixGraph -> %b@."
    (Check.models reg "AdjacencyMatrixGraph" [ n "adjacency_list" ]);
  let w =
    Harness.trials
      [ ( "check",
          job (fun () ->
              Check.models reg "IncidenceGraph" [ n "adjacency_list" ]) ) ]
  in
  Fmt.pr "@.full structural check of IncidenceGraph: %s per check@."
    (ns_str (ns w "check"))

(* ------------------------------------------------------------------ *)
(* F3: CLACRM mixed precision (Fig. 3 / Section 2.4)                   *)
(* ------------------------------------------------------------------ *)

let f3 () =
  section "F3"
    "multi-type Vector Space: complex*real GEMM vs promote-to-complex \
     (CLACRM)";
  let open Gp_linalg in
  Fmt.pr "%6s %14s %14s %9s %12s@." "n" "mixed" "promoted" "speedup"
    "flop ratio";
  List.iter
    (fun sz ->
      let st = Random.State.make [| sz |] in
      let a =
        Dense.cmat_init sz sz (fun _ _ ->
            Complexf.make (Random.State.float st 1.0) (Random.State.float st 1.0))
      in
      let b = Dense.rmat_init sz sz (fun _ _ -> Random.State.float st 1.0) in
      let w =
        Harness.trials
          ~derive:[ ("speedup", fun t -> t "promoted" /. t "mixed") ]
          [ ("mixed", job (fun () -> Dense.gemm_mixed a b));
            ("promoted", job (fun () -> Dense.gemm_promoted a b)) ]
      in
      Fmt.pr "%6d %14s %14s %8.2fx %11.1fx@." sz (ns_str (ns w "mixed"))
        (ns_str (ns w "promoted")) (ns w "speedup")
        (float_of_int (Dense.flops_promoted ~m:sz ~k:sz ~n:sz)
        /. float_of_int (Dense.flops_mixed ~m:sz ~k:sz ~n:sz)))
    [ 16; 32; 64; 128 ];
  Fmt.pr "@.(paper: mixed complex*real 'significantly more efficient' than \
          promotion)@."

(* ------------------------------------------------------------------ *)
(* F4: STLlint (Fig. 4 / Section 3.1)                                  *)
(* ------------------------------------------------------------------ *)

let f4 () =
  section "F4" "STLlint: Fig. 4 detection, corpus accuracy, throughput";
  let open Gp_stllint in
  (* the headline warning *)
  let ds = Interp.check Corpus.fig4_buggy in
  Fmt.pr "Fig. 4 program:@.%a@." Interp.pp_report ds;
  (* corpus confusion table *)
  let tp = ref 0 and fp = ref 0 and fn = ref 0 and tn = ref 0 in
  List.iter
    (fun (c : Corpus.case) ->
      let ds = Interp.check c.Corpus.program in
      let found = Interp.errors ds <> [] || Interp.warnings ds <> [] in
      let expected =
        c.Corpus.expect.Corpus.expect_errors > 0
        || c.Corpus.expect.Corpus.expect_warnings > 0
      in
      match found, expected with
      | true, true -> incr tp
      | true, false -> incr fp
      | false, true -> incr fn
      | false, false -> incr tn)
    Corpus.all;
  Fmt.pr "@.corpus (%d programs): %d true positive, %d true negative, %d \
          false positive, %d false negative@."
    (List.length Corpus.all) !tp !tn !fp !fn;
  (* throughput on generated programs *)
  Fmt.pr "@.%-10s %12s %14s@." "blocks" "diagnostics" "check time";
  List.iter
    (fun blocks ->
      let program = Corpus.generate ~blocks ~buggy_every:4 in
      let count = List.length (Interp.check program) in
      let w =
        Harness.trials
          [ ("lint", job (fun () -> Interp.check program)) ]
      in
      Fmt.pr "%-10d %12d %14s@." blocks count (ns_str (ns w "lint")))
    [ 10; 50; 250 ]

(* ------------------------------------------------------------------ *)
(* F5: Simplicissimus (Fig. 5 / Section 3.2)                           *)
(* ------------------------------------------------------------------ *)

let f5 () =
  section "F5" "Simplicissimus: Fig. 5 rules, certification, rewrite payoff";
  let open Gp_simplicissimus in
  let insts = Instances.standard (Gp_standard.Standard.world ()) in
  let rules = Rules.standard in
  (* certification status *)
  let reports = Certify.certify_builtin () in
  List.iter (fun c -> Fmt.pr "%a@." Certify.pp_certification c) reports;
  (* the regenerated instance table *)
  let open Expr in
  let cases =
    [ ("i * 1", binop "*" (ivar "i") (int 1));
      ("f * 1.0", binop "*" (fvar "f") (float 1.0));
      ("b && true", binop "&&" (bvar "b") (bool true));
      ("i & ~0", binop "&" (ivar "i") (int (-1)));
      ("concat(s,\"\")", binop "^" (svar "s") (string ""));
      ("A . I", binop "." (mvar "A") (Ident ("matrix", ".")));
      ("i + (-i)", binop "+" (ivar "i") (unop "neg" (ivar "i")));
      ("f * (1/f)", binop "*" (fvar "f") (unop "inv" (fvar "f")));
      ("r * r^-1", binop "*" (qvar "r") (unop "inv" (qvar "r")));
      ( "A . A^-1",
        let a = Var ("A", "invertible_matrix") in
        Op (".", "invertible_matrix",
            [ a; Op ("inv", "invertible_matrix", [ a ]) ]) ) ]
  in
  Fmt.pr "@.%-16s %-12s %s@." "instance" "result" "rule (from just 2 concept \
                                                   rules + companions)";
  List.iter
    (fun (label, e) ->
      let r = Engine.rewrite ~rules ~insts e in
      let fired =
        match r.Engine.steps with s :: _ -> s.Engine.st_rule | [] -> "-"
      in
      Fmt.pr "%-16s %-12s %s@." label (Expr.to_string r.Engine.output) fired)
    cases;
  (* rewrite payoff: evaluate a redex-heavy expression before/after *)
  let rec build k =
    if k = 0 then ivar "x"
    else
      binop "+"
        (binop "*" (binop "+" (build (k - 1)) (int 0)) (int 1))
        (binop "+" (int 0) (binop "+" (ivar "y") (unop "neg" (ivar "y"))))
  in
  let e = build 8 in
  let simplified = (Engine.rewrite ~rules ~insts e).Engine.output in
  let env = [ ("x", VInt 21); ("y", VInt (-3)) ] in
  let w =
    Harness.trials
      ~derive:[ ("speedup", fun t -> t "before" /. t "after") ]
      [ ("before", job (fun () -> Eval.eval ~env e));
        ("after", job (fun () -> Eval.eval ~env simplified));
        (* rewriting throughput *)
        ("rewrite", job (fun () -> Engine.rewrite ~rules ~insts e)) ]
  in
  Fmt.pr "@.redex-heavy expression: %d ops -> %d ops@." (Expr.op_count e)
    (Expr.op_count simplified);
  Fmt.pr "evaluation: %s -> %s (%.1fx)@." (ns_str (ns w "before"))
    (ns_str (ns w "after")) (ns w "speedup");
  Fmt.pr "one full rewrite pass over that expression: %s@."
    (ns_str (ns w "rewrite"))

(* ------------------------------------------------------------------ *)
(* F6 + C7: Athena proofs (Fig. 6 / Section 3.3)                       *)
(* ------------------------------------------------------------------ *)

let f6 () =
  section "F6/C7" "Fig. 6 SWO theorems; generic proofs amortised over models";
  let open Gp_athena in
  (* the SWO theorems over three orders *)
  Fmt.pr "%-42s %-12s %s@." "theorem" "model" "verdict";
  List.iter
    (fun lt ->
      List.iter
        (fun thm_fn ->
          let thm = thm_fn ~lt in
          let v = Theorems.verify ~axioms:(Theory.strict_weak_order ~lt) thm in
          Fmt.pr "%-42s %-12s %a@." thm.Theorems.thm_name lt
            Deduction.pp_verdict v)
        [ Theorems.swo_e_reflexive; Theorems.swo_e_symmetric;
          Theorems.swo_e_transitive; Theorems.swo_asymmetric ])
    [ "int_lt"; "string_lt"; "rational_lt" ];
  let instances = Theory.group_instances in
  let thm0 = Theorems.group_right_inverse Theory.int_add in
  Fmt.pr "@.group right-inverse proof: %d inference nodes@."
    (Deduction.size thm0.Theorems.proof);
  (* the checking ledger: one row per checking job, the exact minor words
     one run allocates and the wall time of one run. A [prove_*] row is
     what a served prove miss does: build the theory's instances and
     check every theorem. *)
  let verify_all plan =
    List.iter
      (fun (_, axioms, theorems) ->
        List.iter
          (fun thm -> ignore (Sys.opaque_identity (Theorems.verify ~axioms thm)))
          theorems)
      plan
  in
  let rows =
    [ ( "certify_builtin", "Certify.certify_builtin",
        fun () ->
          ignore
            (Sys.opaque_identity
               (Gp_simplicissimus.Certify.certify_builtin ())) );
      ( "group_right_inverse_one", "group right inverse, one instance",
        fun () ->
          ignore
            (Sys.opaque_identity
               (Theorems.verify
                  ~axioms:(Theory.group_minimal Theory.int_add)
                  thm0)) );
      ( "group_right_inverse_all",
        Printf.sprintf "group right inverse, all %d instances"
          (List.length instances),
        fun () ->
          ignore
            (Sys.opaque_identity
               (Theorems.check_for_instances
                  ~theorem:Theorems.group_right_inverse
                  ~axioms:Theory.group_minimal instances)) ) ]
    @ List.map
        (fun (theory, instances) ->
          ( "prove_" ^ theory, "gp prove --theory " ^ theory,
            fun () -> verify_all (Theorems.build_all instances) ))
        Theorems.catalogue
  in
  let words = List.map (fun (_, _, job) -> Harness.minor_words job) rows in
  let w =
    Harness.trials ~unit:1e3
      (List.map (fun (key, _, job) -> (key ^ "_us", job)) rows)
  in
  Fmt.pr "@.the checking ledger: minor words and wall time of one run@.";
  Fmt.pr "  %-42s %12s %22s@." "job" "minor words" "wall [IQR]";
  List.iter2
    (fun (key, label, _) words ->
      Fmt.pr "  %-42s %12.0f %22s@." label words
        (wall_str "%.1f us [%.1f]" (Harness.get w (key ^ "_us")));
      record ~experiment:"f6" (key ^ "_minor_words") words;
      record_wall ~experiment:"f6" w (key ^ "_us"))
    rows words;
  Fmt.pr "  (medians over %d shuffled trials, each sample the mean of \
          enough runs to fill a millisecond)@." w.Harness.trials;
  Fmt.pr "(paper: 'it is much more efficient to check a given proof than to \
          search for [one]')@."

(* ------------------------------------------------------------------ *)
(* C1: concept-dispatched sort                                         *)
(* ------------------------------------------------------------------ *)

let c1 () =
  section "C1"
    "concept-based overloading: sort dispatch (introsort vs mergesort)";
  let open Gp_sequence in
  Fmt.pr "%8s %16s %16s %18s@." "n" "vector/introsort" "list/mergesort"
    "vector-as-forward";
  List.iter
    (fun n ->
      let data = List.init n (fun i -> (i * 7919) mod n) in
      let w =
        Harness.trials
          [ ( "vector",
              fun () ->
                let a = Varray.of_list ~dummy:0 data in
                Algorithms.sort ~lt:( < ) (Varray.begin_ a, Varray.end_ a) );
            ( "list",
              fun () ->
                let l = Dlist.of_list data in
                Algorithms.sort ~lt:( < ) (Dlist.begin_ l, Dlist.end_ l) );
            ( "forward",
              fun () ->
                let a = Varray.of_list ~dummy:0 data in
                Algorithms.sort ~lt:( < )
                  ( Iter.restrict Iter.Forward (Varray.begin_ a),
                    Iter.restrict Iter.Forward (Varray.end_ a) ) ) ]
      in
      Fmt.pr "%8d %16s %16s %18s@." n (ns_str (ns w "vector"))
        (ns_str (ns w "list")) (ns_str (ns w "forward")))
    [ 1_000; 10_000; 100_000; 300_000 ];
  Fmt.pr "(dispatch picks the in-place introsort where random access is \
          modeled and the\n collecting mergesort otherwise; the random-access \
          path needs no O(n) scratch,\n which is the capability difference \
          the concepts encode)@."

(* ------------------------------------------------------------------ *)
(* C2: find vs lower_bound after sortedness analysis                   *)
(* ------------------------------------------------------------------ *)

let c2 () =
  section "C2"
    "sortedness-driven optimization: linear find vs lower_bound (Section \
     3.2)";
  let open Gp_sequence in
  Fmt.pr "%9s %13s %13s %9s %12s %12s@." "n" "find" "lower_bound" "speedup"
    "find derefs" "lb derefs";
  List.iter
    (fun n ->
      let a = Varray.of_list ~dummy:0 (List.init n (fun i -> i)) in
      let target = n - 1 in
      let w =
        Harness.trials
          ~derive:[ ("speedup", fun t -> t "find" /. t "lower_bound") ]
          [ ( "find",
              job (fun () ->
                  Algorithms.find ~eq:Int.equal target
                    (Varray.begin_ a, Varray.end_ a)) );
            ( "lower_bound",
              job (fun () ->
                  Algorithms.lower_bound ~lt:( < ) target
                    (Varray.begin_ a, Varray.end_ a)) ) ]
      in
      let count_ops f =
        let c = Iter.counters () in
        let first = Iter.counting c (Varray.begin_ a) in
        ignore (f (first, Varray.end_ a));
        c.Iter.derefs
      in
      let d_find = count_ops (Algorithms.find ~eq:Int.equal target) in
      let d_lb = count_ops (Algorithms.lower_bound ~lt:( < ) target) in
      Fmt.pr "%9d %13s %13s %8.0fx %12d %12d@." n (ns_str (ns w "find"))
        (ns_str (ns w "lower_bound")) (ns w "speedup") d_find d_lb)
    [ 1_000; 10_000; 100_000; 1_000_000 ];
  Fmt.pr "(the STLlint suggestion converts O(n) searches into O(log n): an \
          asymptotic win, growing with n)@."

(* ------------------------------------------------------------------ *)
(* C3: constraint propagation counts                                   *)
(* ------------------------------------------------------------------ *)

let c3 () =
  section "C3"
    "constraint propagation: declared vs spelled-out constraints (Sections \
     2.3-2.4)";
  let open Gp_concepts in
  let n x = Ctype.Named x in
  (* real concepts *)
  let reg = Registry.create () in
  Gp_graph.Decls.declare reg;
  let sreg = Registry.create () in
  Gp_sequence.Decls.declare sreg;
  Fmt.pr "%-38s %9s %12s %10s@." "constraint at a generic function"
    "declared" "spelled out" "extra tyvars";
  List.iter
    (fun (reg, concept, ty) ->
      Fmt.pr "%-38s %9d %12d %10d@."
        (concept ^ "<" ^ ty ^ ">")
        Propagate.declared_size
        (Propagate.explicit_size reg concept [ n ty ])
        (Propagate.emulation_type_parameters reg concept [ n ty ]))
    [ (reg, "IncidenceGraph", "adjacency_list");
      (reg, "VertexListGraph", "adjacency_list");
      (sreg, "Container", "vector<int>");
      (sreg, "RandomAccessContainer", "vector<int>") ];
  (* the Section 2.2 emulation translation, rendered *)
  (match Registry.find_concept reg "IncidenceGraph" with
  | Some con ->
    let flat = Emulation.translate reg con in
    let orig, flattened = Emulation.blowup reg con in
    Fmt.pr
      "@.associated-type emulation (Section 2.2): IncidenceGraph becomes@.%a@."
      Emulation.pp flat;
    Fmt.pr "type parameters: %d -> %d ('often more than doubled')@." orig
      flattened
  | None -> ());
  (* the 2^h tower of two-type concepts *)
  Fmt.pr "@.two-type concept tower (Section 2.4): subtype constraints \
          without propagation grow as 2^h@.";
  Fmt.pr "%6s %22s %24s@." "height" "with propagation" "without (2^(h+1)-1)";
  List.iter
    (fun h ->
      let treg = Registry.create () in
      Registry.declare_type treg "a";
      Registry.declare_type treg "b";
      Registry.declare_concept treg
        (Concept.make ~params:[ "V"; "S" ] "L0" [ Concept.axiom "t" "true" ]);
      for i = 1 to h do
        Registry.declare_concept treg
          (Concept.make ~params:[ "V"; "S" ]
             (Printf.sprintf "L%d" i)
             ~refines:
               [ (Printf.sprintf "L%d" (i - 1), [ Ctype.Var "V"; Ctype.Var "S" ]);
                 (Printf.sprintf "L%d" (i - 1), [ Ctype.Var "S"; Ctype.Var "V" ]) ]
             [ Concept.axiom "t" "true" ])
      done;
      (* count the written-out tree (no dedup): what a programmer types *)
      let rec tree i = if i = 0 then 1 else 1 + (2 * tree (i - 1)) in
      Fmt.pr "%6d %22d %24d@." h Propagate.declared_size (tree h))
    [ 1; 2; 3; 4; 5; 6; 8 ]

(* ------------------------------------------------------------------ *)
(* C5: distributed algorithms series                                   *)
(* ------------------------------------------------------------------ *)

let c5 () =
  section "C5"
    "distributed taxonomy: LCR vs HS messages; local computation; \
     broadcast costs (Section 4)";
  let open Gp_distsim in
  let tax = Taxonomy7.build () in
  Fmt.pr "leader election on rings (worst-case uids):@.";
  Fmt.pr "%6s %10s %12s %10s %12s %10s@." "n" "LCR msgs" "LCR local"
    "HS msgs" "HS local" "HS/LCR";
  List.iter
    (fun n ->
      let uids = Array.init n (fun i -> n - i) in
      let lcr = Algorithms.Lcr.run ~uids (Topology.ring_unidirectional n) in
      let hs = Algorithms.Hs.run ~uids (Topology.ring n) in
      let lm = lcr.Engine.metrics.Engine.messages_sent in
      let hm = hs.Engine.metrics.Engine.messages_sent in
      (* record the actual measurements against the taxonomy entries *)
      Gp_concepts.Taxonomy.record_measurement tax ~entry:"LCR"
        ~measure:"messages" ~param:n ~value:(float_of_int lm);
      Gp_concepts.Taxonomy.record_measurement tax ~entry:"HS"
        ~measure:"messages" ~param:n ~value:(float_of_int hm);
      Fmt.pr "%6d %10d %12d %10d %12d %9.2f@." n lm
        (Engine.total_local_steps lcr.Engine.metrics)
        hm
        (Engine.total_local_steps hs.Engine.metrics)
        (float_of_int hm /. float_of_int lm))
    [ 8; 16; 32; 64; 128; 256 ];
  (* the taxonomy now carries analytic bound + actual samples side by
     side — the Section 4 "organize and present detailed actual
     performance measurements" *)
  Fmt.pr "@.taxonomy entries with measured data attached:@.";
  List.iter
    (fun name ->
      match Gp_concepts.Taxonomy.find_entry tax name with
      | Some e ->
        let samples =
          Gp_concepts.Taxonomy.measurements tax ~entry:name ~measure:"messages"
        in
        Fmt.pr "  %-4s analytic %-12s measured %a@." name
          (match List.assoc_opt "messages" e.Gp_concepts.Taxonomy.en_costs with
          | Some c -> Gp_concepts.Complexity.to_string c
          | None -> "?")
          Fmt.(
            list ~sep:sp (fun ppf m ->
                pf ppf "%d:%.0f" m.Gp_concepts.Taxonomy.ms_param
                  m.Gp_concepts.Taxonomy.ms_value))
          samples
      | None -> ())
    [ "LCR"; "HS" ];
  Fmt.pr "@.broadcast on 64 nodes (messages / completion time / total local \
          steps):@.";
  List.iter
    (fun (name, topo) ->
      let r = Algorithms.Flood.run ~root:0 ~value:1 topo in
      Fmt.pr "  %-14s %a@." name Engine.pp_metrics r.Engine.metrics)
    [ ("ring", Topology.ring 64); ("star", Topology.star 64);
      ("grid 8x8", Topology.grid 8 8); ("tree", Topology.binary_tree 64);
      ("complete", Topology.complete 64) ];
  Fmt.pr "@.taxonomy pick (problem=leader-election, topology=bidirectional-\
          ring, measure=messages):@.";
  List.iter
    (fun e -> Fmt.pr "  -> %a@." Gp_concepts.Taxonomy.pp_entry e)
    (Taxonomy7.pick_for tax ~problem:"leader-election"
       ~topology:"bidirectional-ring" ~measure:"messages")

(* ------------------------------------------------------------------ *)
(* C6: data-parallel speedup                                           *)
(* ------------------------------------------------------------------ *)

let c6 () =
  section "C6" "data-parallel executors: speedup across domains (Section 4)";
  let open Gp_datapar in
  (* a compute-bound workload (trial-division primality), so the chunked
     execution has real work to parallelise *)
  let n = 60_000 in
  let a = Array.init n (fun i -> 3 + (2 * ((i * 7919) mod 500_000))) in
  let is_prime k =
    if k < 2 then false
    else if k mod 2 = 0 then k = 2
    else begin
      let rec go d = d * d > k || (k mod d <> 0 && go (d + 2)) in
      go 3
    end
  in
  let cores = Domain.recommended_domain_count () in
  Fmt.pr "host parallelism: %d core(s) recommended by the runtime@." cores;
  if cores <= 1 then
    Fmt.pr
      "NOTE: this machine exposes a single core; the expected speedup of \
       chunked execution is min(domains, cores) = 1, so the rows below \
       measure pure domain overhead. On a multicore host the same harness \
       shows near-linear scaling for this compute-bound kernel.@.";
  (* memory-bound contrast: plain sum and scan barely gain — an honest
     limit of chunked parallelism on bandwidth-bound kernels *)
  let m = 2_000_000 in
  let b = Array.init m (fun i -> (i * 131) mod 1000) in
  let module P2 = Datapar.Par_exec (struct
    let domains = 2
  end) in
  let module P4 = Datapar.Par_exec (struct
    let domains = 4
  end) in
  let speedup name seq par = (name, fun t -> t seq /. t par) in
  let w =
    Harness.trials
      ~derive:
        [ speedup "par2_speedup" "seq" "par2";
          speedup "par4_speedup" "seq" "par4";
          speedup "sum_speedup" "sum_seq" "sum_par";
          speedup "scan_speedup" "scan_seq" "scan_par" ]
      [ ("seq", job (fun () -> Datapar.Seq_exec.count is_prime a));
        ("par2", job (fun () -> P2.count is_prime a));
        ("par4", job (fun () -> P4.count is_prime a));
        ("sum_seq", job (fun () -> Datapar.Seq_exec.reduce Datapar.int_sum b));
        ("sum_par", job (fun () -> P4.reduce Datapar.int_sum b));
        ("scan_seq", job (fun () -> Datapar.Seq_exec.scan Datapar.int_sum b));
        ("scan_par", job (fun () -> P4.scan Datapar.int_sum b)) ]
  in
  Fmt.pr "@.count primes by trial division over %d candidates \
          (compute-bound):@."
    n;
  Fmt.pr "%12s %14s %9s@." "executor" "time" "speedup";
  Fmt.pr "%12s %14s %9s@." "sequential" (ns_str (ns w "seq")) "1.00x";
  List.iter
    (fun d ->
      let key = Printf.sprintf "par%d" d in
      Fmt.pr "%12s %14s %8.2fx@."
        (Printf.sprintf "%d domains" d)
        (ns_str (ns w key)) (ns w (key ^ "_speedup")))
    [ 2; 4 ];
  Fmt.pr
    "@.memory-bound contrast over %d ints (4 domains): reduce %s -> %s \
     (%.2fx), scan %s -> %s (%.2fx)@."
    m (ns_str (ns w "sum_seq")) (ns_str (ns w "sum_par")) (ns w "sum_speedup")
    (ns_str (ns w "scan_seq")) (ns_str (ns w "scan_par"))
    (ns w "scan_speedup")

(* ------------------------------------------------------------------ *)
(* C4/C8: archetypes and diagnostics quality                           *)
(* ------------------------------------------------------------------ *)

let c8 () =
  section "C4/C8" "archetypes and call-site diagnostics (Sections 2.1, 3.1)";
  let open Gp_concepts in
  let reg = Registry.create () in
  Gp_sequence.Decls.declare reg;
  (* archetype implication matrix for the iterator lattice *)
  let cats =
    [ "InputIterator"; "ForwardIterator"; "BidirectionalIterator";
      "RandomAccessIterator" ]
  in
  Fmt.pr "archetype implication (row archetype |= column concept):@.";
  Fmt.pr "%-24s%s@." ""
    (String.concat "" (List.map (fun c -> Printf.sprintf "%-9s" (String.sub c 0 5)) cats));
  List.iter
    (fun declared ->
      Fmt.pr "%-24s" declared;
      List.iter
        (fun used ->
          Fmt.pr "%-9s"
            (if Archetype.implies reg ~declared ~used then "yes" else "-"))
        cats;
      Fmt.pr "@.")
    cats;
  (* diagnostics: the error a user sees when a type fails a concept *)
  Fmt.pr "@.call-site diagnostic for a broken container type:@.";
  let n x = Ctype.Named x in
  Registry.declare_type reg "intset" ~assoc:[ ("value_type", n "int") ];
  Registry.declare_op reg "begin" [ n "intset" ] (n "vector<int>::iterator");
  (* no end(), no size(), iterator assoc missing *)
  let report = Check.check reg "Container" [ n "intset" ] in
  Fmt.pr "%a@." Check.pp_report report;
  Fmt.pr "@.(compare: a C++98 template error for the same defect dumps the \
          instantiation stack of the algorithm body)@."

(* ------------------------------------------------------------------ *)
(* A1: ablations — what breaks when a design choice is removed         *)
(* ------------------------------------------------------------------ *)

let a1 () =
  section "A1" "ablations: refinement ranking, concept guards, checked \
                iterators";
  let open Gp_concepts in
  (* 1. dispatch without most-refined-wins: first-match picks the general
     candidate for a vector *)
  let reg = Registry.create () in
  Gp_sequence.Decls.declare reg;
  let g = Gp_sequence.Decls.sort_generic () in
  let n x = Ctype.Named x in
  let describe = function
    | Overload.Selected (c, _) -> c.Overload.cand_name
    | Overload.Ambiguous _ -> "(ambiguous)"
    | Overload.No_match _ -> "(no match)"
  in
  Fmt.pr "dispatch for vector<int>::iterator:@.";
  Fmt.pr "  most-refined-wins : %s@."
    (describe (Overload.resolve reg g [ n "vector<int>::iterator" ]));
  Fmt.pr "  first-match       : %s   <- loses the O(1)-indexed algorithm@."
    (describe (Overload.resolve_first_match reg g [ n "vector<int>::iterator" ]));
  (* 2. rewriting with a FALSE model declaration: (int, -) declared a
     Monoid fires the left-identity rule 0 - x -> x, which is wrong *)
  let open Gp_simplicissimus in
  Fmt.pr "@.concept guards are load-bearing: declare a false model and \
          rewriting breaks semantics@.";
  let world = Gp_standard.Standard.world () in
  let honest = Instances.standard world in
  let bogus_reg = Registry.fork world in
  Gp_algebra.Decls.declare_carrier bogus_reg ~elem:"int" ~op:"-" "Monoid";
  let bogus = Instances.standard bogus_reg in
  Instances.add bogus ~ty:"int" ~op:"-" ~identity:(Expr.VInt 0) ();
  let e = Expr.binop "-" (Expr.int 0) (Expr.ivar "x") in
  let env = [ ("x", Expr.VInt 5) ] in
  let show label insts =
    let r = Engine.rewrite ~rules:Rules.builtin ~insts e in
    Fmt.pr "  %-22s %-14s evaluates to %a@." label
      (Expr.to_string r.Engine.output)
      Expr.pp_value
      (Eval.eval ~env r.Engine.output)
  in
  Fmt.pr "  input: %s with x = 5 (true value -5)@." (Expr.to_string e);
  show "standard world:" honest;
  show "bogus (int,-) Monoid:" bogus;
  Fmt.pr "  the checker on the false model (int[-] Monoid):@.";
  List.iter
    (fun w -> Fmt.pr "    warning: %a@." Check.pp_warning w)
    (Check.check ~mode:Check.Nominal bogus_reg "Monoid" [ n "int[-]" ])
      .Check.rep_warnings;
  Fmt.pr "  (subtraction has a right identity but no left identity; the \
          checker's axiom@.   warnings and the qcheck law tests are what \
          catch such a false declaration)@.";
  (* 3. the abstraction ledger: one row per rung, the exact minor words
     it allocates per element (per lookup for lower_bound) and its wall
     time as a ratio to the same operation written as a loop over the
     plain int array, both timed in the same trial *)
  let open Gp_sequence in
  let n = 200_000 in
  let lt (a : int) b = a < b in
  let arr = Array.init n (fun i -> i land 1023) in
  let perm = Array.init n (fun i -> i * 7919 mod n) in
  let scratch = Array.make n 0 in
  let va = Varray.of_array ~dummy:0 arr in
  let dq = Deque.of_list ~dummy:0 (Array.to_list arr) in
  let dl = Dlist.of_list (Array.to_list arr) in
  let dst = Varray.of_array ~dummy:0 scratch in
  let unsorted = Varray.of_array ~dummy:0 perm in
  let asc = Array.init n Fun.id in
  let ascending = Varray.of_array ~dummy:0 asc in
  let probes = Array.init 4096 (fun k -> k * (n / 4096)) in
  let range_of a = (Varray.begin_ a, Varray.end_ a) in
  let hand_sum () =
    let s = ref 0 in
    for i = 0 to n - 1 do
      s := !s + arr.(i)
    done;
    ignore (Sys.opaque_identity !s)
  in
  let hand_find () =
    let i = ref 0 in
    while !i < n && arr.(!i) >= 0 do
      incr i
    done;
    ignore (Sys.opaque_identity !i)
  in
  let hand_copy () =
    for i = 0 to n - 1 do
      scratch.(i) <- arr.(i)
    done
  in
  let hand_lower_bound () =
    Array.iter
      (fun v ->
        let lo = ref 0 and hi = ref n in
        while !lo < !hi do
          let mid = (!lo + !hi) / 2 in
          if asc.(mid) < v then lo := mid + 1 else hi := mid
        done;
        ignore (Sys.opaque_identity !lo))
      probes
  in
  let hand_sort () =
    Array.blit perm 0 scratch 0 n;
    Algorithms.Introsort.sort_indexed ~lt ~get:(Array.get scratch)
      ~set:(Array.set scratch) n
  in
  let reset_unsorted () =
    for i = 0 to n - 1 do
      Varray.set unsorted i perm.(i)
    done
  in
  let fold range () =
    ignore (Sys.opaque_identity (Algorithms.fold ( + ) 0 range))
  in
  let hands =
    [ ("hand_sum", hand_sum); ("hand_find", hand_find);
      ("hand_copy", hand_copy); ("hand_lower_bound", hand_lower_bound);
      ("hand_sort", hand_sort) ]
  in
  let rungs =
    [ ("hand_loop", "hand loop", n, hand_sum, "hand_sum");
      ( "array_fold_left", "Array.fold_left", n,
        (fun () -> ignore (Sys.opaque_identity (Array.fold_left ( + ) 0 arr))),
        "hand_sum" );
      ("varray_fold", "fold, Varray", n, fold (range_of va), "hand_sum");
      ( "varray_find_if", "find_if, Varray", n,
        (fun () ->
          ignore
            (Sys.opaque_identity
               (Algorithms.find_if (fun x -> x < 0) (range_of va)))),
        "hand_find" );
      ( "varray_copy", "copy, Varray", n,
        (fun () ->
          ignore
            (Sys.opaque_identity
               (Algorithms.copy (range_of va) (Varray.begin_ dst)))),
        "hand_copy" );
      ( "varray_lower_bound", "lower_bound, Varray (per lookup)",
        Array.length probes,
        (fun () ->
          Array.iter
            (fun v ->
              ignore
                (Sys.opaque_identity
                   (Algorithms.lower_bound ~lt v (range_of ascending))))
            probes),
        "hand_lower_bound" );
      ( "varray_sort", "sort, Varray (introsort)", n,
        (fun () ->
          reset_unsorted ();
          Algorithms.sort ~lt (range_of unsorted)),
        "hand_sort" );
      ( "deque_fold", "fold, Deque", n,
        fold (Deque.begin_ dq, Deque.end_ dq),
        "hand_sum" );
      ( "dlist_fold", "fold, Dlist", n,
        fold (Dlist.begin_ dl, Dlist.end_ dl),
        "hand_sum" );
      ( "restrict_forward_sort", "sort, Iter.restrict Forward (mergesort)", n,
        (fun () ->
          reset_unsorted ();
          Algorithms.sort ~lt
            ( Iter.restrict Iter.Forward (Varray.begin_ unsorted),
              Iter.restrict Iter.Forward (Varray.end_ unsorted) )),
        "hand_sort" );
      ( "counting_fold", "fold, Iter.counting", n,
        (fun () ->
          let c = Iter.counters () in
          fold (Iter.counting c (Varray.begin_ va), Varray.end_ va) ()),
        "hand_sum" ) ]
  in
  let words =
    List.map (fun (_, _, per, rung, _) -> Harness.minor_words ~per rung) rungs
  in
  let ratios = List.tl rungs in
  let w =
    Harness.trials
      ~derive:
        (List.map
           (fun (key, _, _, _, hand) ->
             (key ^ "_wall_ratio", fun t -> t key /. t hand))
           ratios)
      (hands @ List.map (fun (key, _, _, rung, _) -> (key, rung)) ratios)
  in
  Fmt.pr "@.the abstraction ledger over %d ints: minor words per element, \
          wall time against the same loop over the int array@." n;
  Fmt.pr "  %-42s %12s %22s@." "rung" "minor w/elem" "wall ratio [IQR]";
  List.iter2
    (fun (key, label, _, _, _) words ->
      let ratio =
        if key = "hand_loop" then None else Some (key ^ "_wall_ratio")
      in
      Fmt.pr "  %-42s %12.1f %22s@." label words
        (match ratio with
         | None -> ""
         | Some k -> wall_str "%.1fx [%.1f]" (Harness.get w k));
      record ~experiment:"a1" (key ^ "_minor_words") words;
      Option.iter (record_wall ~experiment:"a1" w) ratio)
    rungs words;
  Fmt.pr "  (medians over %d shuffled trials; the sort rungs' loop is \
          Introsort.sort_indexed over the array)@." w.Harness.trials

(* ------------------------------------------------------------------ *)
(* S1: service throughput — cold vs warm caches                        *)
(* ------------------------------------------------------------------ *)

let s1 () =
  section "S1" "gp_service throughput: cold vs warm caches under a Zipf \
                workload";
  let open Gp_service in
  let n = 600 in
  let seed = 42 in
  let reqs = Workload.generate ~seed ~n () in
  let replay = Workload.generate ~seed ~n () in
  assert (Workload.fingerprint reqs = Workload.fingerprint replay);
  Fmt.pr "workload: n=%d seed=%d mix=[%a]@." n seed Workload.pp_mix
    Workload.default_mix;
  Fmt.pr "fingerprint: %s (replay deterministic: verified)@."
    (Workload.fingerprint reqs);
  (* every server reads a ticking clock, so the flight recorder's
     slowest-k list, and with it the minor words, do not depend on the
     host's load *)
  let config = { Server.default_config with now = Harness.ticking_clock () } in
  let pass server () = ignore (Server.process server reqs) in
  (* no-cache: every request recomputed from scratch; cold: a fresh
     server's LRU caches start empty, so a pass pays every LRU miss (the
     process-wide verdict memo on the shared world may already be warm);
     warm: one server replays the identical stream against populated
     caches *)
  let server = Server.create ~config () in
  let served_ok () =
    List.length (List.filter Request.ok (Server.process server reqs))
  in
  let cold_ok = served_ok () in
  let warm_ok = served_ok () in
  let passes =
    [ ( "nocache",
        fun () ->
          pass (Server.create ~config:{ config with caching = false } ()) () );
      ("cold", fun () -> pass (Server.create ~config ()) ());
      ("warm", pass server) ]
  in
  let words = List.map (fun (_, p) -> Harness.minor_words ~per:n p) passes in
  let speedup name slow = (name, fun t -> t (slow ^ "_ns") /. t "warm_ns") in
  let w =
    Harness.trials ~per:n
      ~derive:
        [ speedup "warm_cold_speedup" "cold";
          speedup "warm_nocache_speedup" "nocache" ]
      (List.map (fun (name, p) -> (name ^ "_ns", p)) passes)
  in
  Fmt.pr "@.%-10s %16s %14s@." "pass" "ns/request [IQR]" "minor w/req";
  List.iter2
    (fun (name, _) words ->
      Fmt.pr "%-10s %16s %14.1f@." name
        (wall_str "%.0f [%.0f]" (Harness.get w (name ^ "_ns")))
        words;
      record_wall ~experiment:"s1" w (name ^ "_ns");
      record ~experiment:"s1" (name ^ "_minor_words") words)
    passes words;
  Fmt.pr "@.warm/cold speedup: %s   warm/no-cache: %s   (ok: cold %d, warm \
          %d of %d)@."
    (wall_str "%.2fx [%.2f]" (Harness.get w "warm_cold_speedup"))
    (wall_str "%.2fx [%.2f]" (Harness.get w "warm_nocache_speedup"))
    cold_ok warm_ok n;
  record_wall ~experiment:"s1" w "warm_cold_speedup";
  record_wall ~experiment:"s1" w "warm_nocache_speedup";
  Fmt.pr "@.%s@." (Server.report server);
  Fmt.pr "(the report aggregates every pass of the warm server: a cold \
          pass's misses with the warm hits)@."

(* ------------------------------------------------------------------ *)
(* S2: indexed dispatch vs the seed linear scans                       *)
(* ------------------------------------------------------------------ *)

(* Three hot paths gained generation-keyed indexes: registry lookups
   (hashed concept/type/op/model tables + a precomputed refinement
   closure), the rewrite engine (head-symbol rule index, O(1) carrier
   lookups, guard memo), and propagation closure (hashed worklist). The
   seed implementations survive as reference oracles; this section
   times both sides on a large synthetic world. *)

(* The cold-rewrite world shared by s2 and s3: [nentries] abelian-group
   instance entries, [nrules] user rules on top of the builtins, and a
   deep expression carrying a redex at every level. Returns
   (insts, rules, expr, nentries). *)
let rewrite_world () =
  let open Gp_simplicissimus in
  let nentries = 250 in
  let nrules = 200 in
  let reg = Gp_concepts.Registry.create () in
  List.iter
    (Gp_concepts.Registry.declare_concept reg)
    Gp_algebra.Decls.all_concepts;
  let insts = Instances.create reg in
  for i = 0 to nentries - 1 do
    let ty = Printf.sprintf "u%d" i in
    Gp_algebra.Decls.declare_carrier reg ~elem:ty ~op:"+" "AbelianGroup";
    Instances.add insts ~ty ~op:"+" ~identity:(Expr.VInt 0) ~inverse:"neg" ()
  done;
  let user_rules =
    List.init nrules (fun i ->
        Rules.make
          ~guard:(Rules.Carrier ("u0", Printf.sprintf "g%d" i))
          ~name:(Printf.sprintf "user-g%d" i)
          ~lhs:(Rules.P_exact (Printf.sprintf "g%d" i, [ Rules.P_any "x" ]))
          ~rhs:(Rules.T_var "x") ())
  in
  let rules = Rules.builtin @ user_rules in
  let rec build k =
    if k = 0 then Expr.Var ("x", "u0")
    else
      Expr.Op
        ( "g" ^ string_of_int (k mod nrules),
          "u0",
          [ Expr.Op
              ( "+",
                "u0",
                [ Expr.Op ("+", "u0", [ build (k - 1); Expr.Ident ("u0", "+") ]);
                  Expr.Op
                    ( "+",
                      "u0",
                      [ Expr.Var ("y", "u0");
                        Expr.Op ("neg", "u0", [ Expr.Var ("y", "u0") ]) ] )
                ] ) ] )
  in
  let e = build 40 in
  (insts, rules, e, nentries)

let s2 () =
  section "S2"
    "indexed dispatch: registry lookups, rule indexing, worklist closure \
     vs the seed linear scans";
  let open Gp_concepts in
  let n x = Ctype.Named x in
  (* -------- registry: hundreds of types/concepts/ops/models -------- *)
  let ntypes = 300 in
  let nconcepts = 120 in
  let reg = Registry.create () in
  for i = 0 to ntypes - 1 do
    Registry.declare_type reg (Printf.sprintf "T%d" i)
  done;
  (* one long refinement chain K0 <- K1 <- ... so transitive refines
     queries have real depth *)
  for i = 0 to nconcepts - 1 do
    let refines =
      if i = 0 then []
      else [ (Printf.sprintf "K%d" (i - 1), [ Ctype.Var "X" ]) ]
    in
    Registry.declare_concept reg
      (Concept.make ~params:[ "X" ] ~refines
         (Printf.sprintf "K%d" i)
         [ Concept.axiom "t" "true" ])
  done;
  for i = 0 to (2 * ntypes) - 1 do
    Registry.declare_op reg
      (Printf.sprintf "op%d" (i mod 7))
      [ n (Printf.sprintf "T%d" (i mod ntypes)) ]
      (n "T0")
  done;
  for i = 0 to ntypes - 1 do
    Registry.declare_model reg
      (Printf.sprintf "K%d" (i mod nconcepts))
      [ n (Printf.sprintf "T%d" i) ]
  done;
  Fmt.pr "world: %d types, %d chained concepts, %d ops, %d models@." ntypes
    nconcepts (2 * ntypes) ntypes;
  (* the seed lookups: scans over the registry's exposed lists *)
  let args_equal a1 a2 =
    List.length a1 = List.length a2 && List.for_all2 Ctype.equal a1 a2
  in
  let find_model_ref concept args =
    List.find_opt
      (fun m ->
        String.equal m.Registry.mo_concept concept
        && args_equal m.Registry.mo_args args)
      reg.Registry.models
  in
  let refines_ref a b =
    let rec go visited c =
      if String.equal c b then true
      else if List.mem c visited then false
      else
        List.exists
          (fun (x, y) -> String.equal x c && go (c :: visited) y)
          reg.Registry.refinement_edges
    in
    go [] a
  in
  let probe_tys =
    List.init 32 (fun i -> Printf.sprintf "T%d" (i * 9 mod ntypes))
  in
  let top = Printf.sprintf "K%d" (nconcepts - 1) in
  let probe ~find_model ~refines () =
    List.fold_left
      (fun acc ty ->
        acc
        + (match find_model "K3" [ n ty ] with Some _ -> 1 | None -> 0)
        + (if refines top "K0" then 1 else 0))
      0 probe_tys
  in
  (* both sides must agree before we time anything *)
  assert (
    probe ~find_model:(Registry.find_model reg)
      ~refines:(Registry.refines reg) ()
    = probe ~find_model:find_model_ref ~refines:refines_ref ());
  (* -------- propagation: a wide refinement fan-out ----------------- *)
  let mids = 50 in
  let leaves = 50 in
  let preg = Registry.create () in
  Registry.declare_type preg "P";
  for m = 0 to mids - 1 do
    for l = 0 to leaves - 1 do
      Registry.declare_concept preg
        (Concept.make ~params:[ "X" ]
           (Printf.sprintf "Leaf_%d_%d" m l)
           [ Concept.axiom "t" "true" ])
    done
  done;
  for m = 0 to mids - 1 do
    Registry.declare_concept preg
      (Concept.make ~params:[ "X" ]
         ~refines:
           (List.init leaves (fun l ->
                (Printf.sprintf "Leaf_%d_%d" m l, [ Ctype.Var "X" ])))
         (Printf.sprintf "Mid_%d" m)
         [ Concept.axiom "t" "true" ])
  done;
  Registry.declare_concept preg
    (Concept.make ~params:[ "X" ]
       ~refines:
         (List.init mids (fun m -> (Printf.sprintf "Mid_%d" m, [ Ctype.Var "X" ])))
       "Root"
       [ Concept.axiom "t" "true" ]);
  let obs = Propagate.closure preg "Root" [ n "P" ] in
  let obs_ref = Oracles.closure_reference preg "Root" [ n "P" ] in
  assert (
    List.length obs = List.length obs_ref
    && List.for_all2 Propagate.obligation_equal obs obs_ref);
  Fmt.pr "propagation fan-out: %d obligations in the closure@."
    (List.length obs);
  (* -------- cold rewrite throughput -------------------------------- *)
  let open Gp_simplicissimus in
  let insts2, rules2, e, nentries = rewrite_world () in
  let r_ix = Engine.rewrite ~rules:rules2 ~insts:insts2 e in
  let r_ref = Oracles.rewrite_reference ~rules:rules2 ~insts:insts2 e in
  assert (Expr.equal r_ix.Engine.output r_ref.Engine.output);
  assert (List.length r_ix.Engine.steps = List.length r_ref.Engine.steps);
  Fmt.pr
    "cold rewrite: %d rules over %d instance entries, %d-op expression, %d \
     steps fired@."
    (List.length rules2) nentries (Expr.op_count e)
    (List.length r_ix.Engine.steps);
  (* -------- table + machine-readable record ------------------------ *)
  let rows =
    [ ( "registry find_model + refines", "registry",
        ("linear", job (probe ~find_model:find_model_ref ~refines:refines_ref)),
        ( "indexed",
          job
            (probe ~find_model:(Registry.find_model reg)
               ~refines:(Registry.refines reg)) ) );
      ( Printf.sprintf "propagation closure (%d obs)" (List.length obs),
        "closure",
        ( "reference",
          job (fun () -> Oracles.closure_reference preg "Root" [ n "P" ]) ),
        ("worklist", job (fun () -> Propagate.closure preg "Root" [ n "P" ]))
      );
      ( Printf.sprintf "cold rewrite (%d rules)" (List.length rules2),
        "rewrite",
        ( "reference",
          job (fun () ->
              Oracles.rewrite_reference ~rules:rules2 ~insts:insts2 e) ),
        ( "indexed",
          job (fun () -> Engine.rewrite ~rules:rules2 ~insts:insts2 e) ) ) ]
  in
  let jobs =
    List.concat_map
      (fun (_, path, (ref_side, ref_job), (ix_side, ix_job)) ->
        [ (path ^ "_" ^ ref_side, ref_job); (path ^ "_" ^ ix_side, ix_job) ])
      rows
  in
  let words = List.map (fun (_, j) -> Harness.minor_words j) jobs in
  let w =
    Harness.trials
      ~derive:
        (List.map
           (fun (_, path, (ref_side, _), (ix_side, _)) ->
             ( path ^ "_speedup",
               fun t ->
                 t (path ^ "_" ^ ref_side ^ "_ns")
                 /. t (path ^ "_" ^ ix_side ^ "_ns") ))
           rows)
      (List.map (fun (k, j) -> (k ^ "_ns", j)) jobs)
  in
  Fmt.pr "@.%-36s %13s %13s %9s@." "hot path" "linear scan" "indexed"
    "speedup";
  List.iter
    (fun (label, path, (ref_side, _), (ix_side, _)) ->
      let t side = ns w (path ^ "_" ^ side ^ "_ns") in
      Fmt.pr "%-36s %13s %13s %8.1fx@." label
        (ns_str (t ref_side)) (ns_str (t ix_side))
        (ns w (path ^ "_speedup"));
      record_wall ~experiment:"s2" w (path ^ "_" ^ ref_side ^ "_ns");
      record_wall ~experiment:"s2" w (path ^ "_" ^ ix_side ^ "_ns");
      record_wall ~experiment:"s2" w (path ^ "_speedup"))
    rows;
  Fmt.pr "@.%-36s %13s@." "one run of each timed job" "minor words";
  List.iter2
    (fun (k, _) words ->
      Fmt.pr "%-36s %13.0f@." k words;
      record ~experiment:"s2" (k ^ "_minor_words") words)
    jobs words;
  Fmt.pr
    "@.(acceptance: cold rewrite >= 3x over the linear-scan reference; the \
     qcheck@. equivalence suite pins both engines to identical outputs and \
     step traces)@."

(* ------------------------------------------------------------------ *)
(* S3: telemetry overhead                                              *)
(* ------------------------------------------------------------------ *)

let s3 () =
  section "S3"
    "telemetry overhead on the s2 rewrite workload: bare core vs \
     instrumented with no sink (the shipped default) vs a full sink";
  let open Gp_simplicissimus in
  let module Tel = Gp_telemetry.Tel in
  let insts, rules, e, nentries = rewrite_world () in
  assert (not (Tel.is_enabled ()));
  (* all three paths must produce the same result before we time them *)
  let r_core = Engine.rewrite_uninstrumented ~rules ~insts e in
  let r_off = Engine.rewrite ~rules ~insts e in
  let r_on, spans_per_call, counters =
    Tel.with_installed (fun sink ->
        let r = Engine.rewrite ~rules ~insts e in
        let rewrite =
          List.find
            (fun sp ->
              sp.Gp_telemetry.Trace.sp_name = "simplicissimus.rewrite")
            (Gp_telemetry.Trace.spans sink.Tel.trace)
        in
        ( r,
          Gp_telemetry.Trace.recorded sink.Tel.trace,
          float_of_string
            (List.assoc "guard_probes" rewrite.Gp_telemetry.Trace.sp_attrs) ))
  in
  assert (Expr.equal r_core.Engine.output r_off.Engine.output);
  assert (Expr.equal r_core.Engine.output r_on.Engine.output);
  assert (
    List.length r_core.Engine.steps = List.length r_on.Engine.steps);
  Fmt.pr
    "world: %d rules over %d instance entries, %d-op expression, %d steps; \
     enabled run records %d span(s), %.0f guard probes@."
    (List.length rules) nentries (Expr.op_count e)
    (List.length r_core.Engine.steps)
    spans_per_call counters;
  (* exact minor words of one rewrite, after a warm-up call, with no sink
     and with one installed; that sink reads a manual clock, as what it
     allocates depends on the durations it records *)
  let rewrite () = Engine.rewrite ~rules ~insts e in
  let disabled_minor = Harness.minor_words rewrite in
  let enabled_minor =
    Tel.with_installed
      ~clock:(Gp_telemetry.Clock.manual ~step:1000.0 ())
      (fun _ -> Harness.minor_words rewrite)
  in
  (* the three variants timed in one trial set, a block of [reps]
     rewrites per call, the enabled one inside one installed sink; the
     overheads are medians of the per-trial ratios *)
  let reps = 10 in
  let block f () =
    for _ = 1 to reps do
      ignore (Sys.opaque_identity (f ()))
    done
  in
  let overhead name variant =
    ( name,
      fun t -> ((t variant /. t "uninstrumented_ns") -. 1.0) *. 100.0 )
  in
  let w =
    Harness.trials ~n:41 ~per:reps
      ~derive:
        [ overhead "disabled_overhead_pct" "disabled_ns";
          overhead "enabled_overhead_pct" "enabled_ns" ]
      [ ( "uninstrumented_ns",
          block (fun () -> Engine.rewrite_uninstrumented ~rules ~insts e) );
        ("disabled_ns", block rewrite);
        ("enabled_ns", fun () -> Tel.with_installed (fun _ -> block rewrite ()))
      ]
  in
  let wall k = ns_str (ns w k) and pct k = ns w k in
  Fmt.pr "@.%-36s %13s %10s %12s@." "variant" "per rewrite" "vs core"
    "minor words";
  Fmt.pr "%-36s %13s %10s %12s@." "uninstrumented core"
    (wall "uninstrumented_ns") "" "";
  Fmt.pr "%-36s %13s %+9.2f%% %12.0f@." "instrumented, telemetry off"
    (wall "disabled_ns") (pct "disabled_overhead_pct") disabled_minor;
  Fmt.pr "%-36s %13s %+9.2f%% %12.0f@." "instrumented, telemetry on"
    (wall "enabled_ns") (pct "enabled_overhead_pct") enabled_minor;
  Fmt.pr "(medians over %d shuffled trials of %d rewrites each)@."
    w.Harness.trials reps;
  record_wall ~experiment:"s3" w "uninstrumented_ns";
  record_wall ~experiment:"s3" w "disabled_ns";
  record_wall ~experiment:"s3" w "disabled_overhead_pct";
  record ~experiment:"s3" "disabled_minor_words" disabled_minor;
  record_wall ~experiment:"s3" w "enabled_ns";
  record_wall ~experiment:"s3" w "enabled_overhead_pct";
  record ~experiment:"s3" "enabled_minor_words" enabled_minor;
  Fmt.pr
    "@.(acceptance: the disabled path — what every caller pays when nobody \
     installed a sink —@. stays within a few percent of the bare core; the \
     target in ISSUE/EXPERIMENTS is < 5%%)@."

(* ------------------------------------------------------------------ *)
(* S4: flight-recorder overhead and deterministic replay               *)
(* ------------------------------------------------------------------ *)

let s4 () =
  section "S4"
    "flight recorder: steady-state overhead over the enabled-telemetry \
     baseline, and deterministic replay of a seeded error workload";
  let open Gp_service in
  let module Tel = Gp_telemetry.Tel in
  let module Recorder = Gp_telemetry.Recorder in
  let n = 200 in
  let seed = 11 in
  let errors = 0.2 in
  let reqs = Workload.generate ~seed ~errors ~n () in
  (* max_steps 2500 turns the injected identity-chain rewrite into a real
     Over_budget error — the flight-recorder regime *)
  let base_config =
    { Server.default_config with max_steps = 2500; flight_capacity = 0 }
  in
  let on_config = { base_config with flight_capacity = 2 * n } in
  Fmt.pr "workload: n=%d seed=%d errors=%.2f  max_steps=%d@." n seed errors
    base_config.Server.max_steps;
  (* Overhead: telemetry enabled on both sides (the s3 "enabled"
     regime), so the only delta is the recorder's per-request dossier
     work. Caches warmed by a throwaway pass on each server. *)
  let w =
    Tel.with_installed ~trace_capacity:65536 (fun _sink ->
        let serve config =
          let server = Server.create ~config () in
          ignore (Server.process server reqs);
          job (fun () -> Server.process server reqs)
        in
        Harness.trials
          ~derive:
            [ ( "recorder_overhead_pct",
                fun t ->
                  ((t "recorder_on_ns" /. t "recorder_off_ns") -. 1.0) *. 100.0
              ) ]
          [ ("recorder_off_ns", serve base_config);
            ("recorder_on_ns", serve on_config) ])
  in
  let t_off = ns w "recorder_off_ns" and t_on = ns w "recorder_on_ns" in
  Fmt.pr "@.%-34s %13s %13s@." "variant" "per stream" "per request";
  Fmt.pr "%-34s %13s %13s@." "telemetry on, recorder off" (ns_str t_off)
    (ns_str (t_off /. float_of_int n));
  Fmt.pr "%-34s %13s %13s@." "telemetry on, recorder on" (ns_str t_on)
    (ns_str (t_on /. float_of_int n));
  Fmt.pr "recorder overhead: %+.2f%%  (acceptance target: < 5%%)@."
    (ns w "recorder_overhead_pct");
  record_wall ~experiment:"s4" w "recorder_off_ns";
  record_wall ~experiment:"s4" w "recorder_on_ns";
  record_wall ~experiment:"s4" w "recorder_overhead_pct";
  (* Deterministic replay: one fresh recorded pass, round-tripped
     through the JSONL dump format (exactly what gp replay reads), then
     re-executed from cold caches. Every fingerprint must match. *)
  let dossiers =
    Tel.with_installed ~trace_capacity:65536 (fun _sink ->
        let server = Server.create ~config:on_config () in
        ignore (Server.process server reqs);
        match Server.flight server with
        | Some r -> Recorder.dossiers r
        | None -> assert false)
  in
  assert (List.length dossiers = n);
  let dump =
    String.concat ""
      (List.map (fun d -> Recorder.dossier_to_json d ^ "\n") dossiers)
  in
  let parsed =
    match Recorder.of_jsonl dump with Ok ds -> ds | Error m -> failwith m
  in
  assert (List.length parsed = n);
  let outcome =
    match Flight.replay parsed with
    | Ok o -> o
    | Error m -> failwith m
  in
  assert (outcome.Flight.rep_total = n);
  assert (Flight.all_matched outcome);
  let errs =
    List.length
      (List.filter (fun d -> d.Recorder.do_outcome <> "ok") parsed)
  in
  assert (errs > 0);
  Fmt.pr
    "@.replay: %d/%d fingerprints matched from a cold-cache re-execution \
     (%d error dossier(s) included) — deterministic@."
    outcome.Flight.rep_matched outcome.Flight.rep_total errs;
  record ~experiment:"s4" "replay_diverged_pct"
    (100.0
    *. float_of_int (List.length outcome.Flight.rep_diverged)
    /. float_of_int n)

(* ------------------------------------------------------------------ *)
(* S5: the simulated serving cluster — sharding, failover, audit       *)
(* ------------------------------------------------------------------ *)

(* Everything in this section but the wall rows of the perfbench
   cluster shape is simulated time inside gp_distsim or an exact count,
   so the numbers are bit-identical across runs and machines and
   bench-diff can gate them exactly. Two series plus the consistency
   audit:
     - messages/request and cache miss ratio vs shard count, with
       key-affinity sharding against a round-robin contrast arm;
     - failover latency and completion under 20% message drops plus a
       leader crash, audited against a single-node replay. *)
let s5 () =
  section "S5" "gp_cluster: sharded/replicated serving under deterministic \
                failure injection";
  let open Gp_cluster in
  let n = 240 in
  let seed = 11 in
  let reqs =
    Gp_service.Workload.generate ~seed ~n () |> Array.of_list
  in
  Fmt.pr "workload: n=%d seed=%d — simulated time@." n seed;
  let run ?(failures = []) ?(affinity = true) replicas =
    Cluster.run
      ~config:{ Cluster.default_config with replicas; affinity; failures } reqs
  in
  (* shard-count sweep: key affinity concentrates each key's repeats on
     one replica's caches; round-robin scatters them, so its hit ratio
     decays with the replica count *)
  Fmt.pr "@.shard-count sweep (no failures):@.";
  Fmt.pr "%-10s %10s %12s %16s@." "replicas" "msgs/req" "miss% keyed"
    "miss% round-robin";
  let cluster_words = ref 0.0 and heap_peak = ref 0 in
  List.iter
    (fun replicas ->
      let keyed, words = Harness.allocated (fun () -> run replicas) in
      if replicas = 8 then begin
        cluster_words := words /. float_of_int n;
        heap_peak := keyed.Cluster.r_metrics.Gp_distsim.Engine.heap_peak
      end;
      let rr = run ~affinity:false replicas in
      assert (keyed.Cluster.r_completed = n && rr.Cluster.r_completed = n);
      let miss r = 100.0 *. (1.0 -. Cluster.hit_ratio r) in
      Fmt.pr "%-10d %10.2f %12.1f %16.1f@." replicas
        (Cluster.messages_per_request keyed)
        (miss keyed) (miss rr);
      let tag = Printf.sprintf "_r%d" replicas in
      record ~experiment:"s5" ("msgs_per_req" ^ tag)
        (Cluster.messages_per_request keyed);
      record ~experiment:"s5" ("miss_keyed" ^ tag ^ "_pct") (miss keyed);
      record ~experiment:"s5" ("miss_rr" ^ tag ^ "_pct") (miss rr))
    [ 1; 2; 4; 8 ];
  (* allocation per simulated event of the bare engine (HS on a 256-node
     asynchronous ring: the algorithm's own states and messages
     included) and per request of the keyed 8-replica run above — exact
     counts, so bench-diff holds them to 0.5 % *)
  let engine_words =
    let open Gp_distsim in
    let nodes = 256 in
    let config =
      { Engine.default_config with
        Engine.timing = Engine.Asynchronous { max_delay = 3.0 } }
    in
    let uids = Array.init nodes (fun i -> nodes - i) in
    let r, words =
      Harness.allocated (fun () ->
          Algorithms.Hs.run ~config ~uids (Topology.ring nodes))
    in
    words /. float_of_int r.Engine.metrics.Engine.events
  in
  Fmt.pr "@.allocation: %.2f minor words per engine event (HS, async \
          ring of 256), %.1f per request (keyed, 8 replicas)@."
    engine_words !cluster_words;
  record ~experiment:"s5" "engine_minor_words_per_event" engine_words;
  record ~experiment:"s5" "cluster_minor_words_per_request" !cluster_words;
  (* the most events the engine's heap held at once in the keyed
     8-replica run: an exact count, gated like the allocation counts *)
  Fmt.pr "engine heap peak: %d events (keyed, 8 replicas)@." !heap_peak;
  record ~experiment:"s5" "engine_heap_peak_r8" (float_of_int !heap_peak);
  (* the perfbench `cluster` shape: the s7 serving mix with the numeric
     kinds, 2 000 requests rendered to wire lines and loaded the way
     `gp cluster run --file` loads them, run through 8 asynchronous
     replicas (seed 1), then audited on one server. The minor words per
     request of the load, the run and the audit are exact counts, and
     the wall clock is split the same three ways, per request. *)
  let n_shape = 2000 in
  let lines =
    let mix =
      Gp_service.Workload.default_mix
      @ Gp_service.Request.[ (Kmatvec, 8); (Kmatmul, 4); (Ksolve, 4) ]
    in
    Gp_service.Workload.generate ~mix ~seed:1 ~n:n_shape ()
    |> List.map (fun req -> Gp_service.Wire.request_to_line req)
  in
  let load () =
    match Gp_service.Wire.requests_of_lines lines with
    | Ok reqs -> reqs
    | Error e -> failwith e
  in
  let config =
    { Cluster.default_config with
      replicas = 8; seed = 1;
      timing = Gp_distsim.Engine.Asynchronous { max_delay = 3.0 } }
  in
  let per_req_words f =
    let x, words = Harness.allocated f in
    (x, words /. float_of_int n_shape)
  in
  let reqs, load_words = per_req_words load in
  let r, run_words = per_req_words (fun () -> Cluster.run ~config reqs) in
  let a, audit_words = per_req_words (fun () -> Cluster.audit r) in
  assert (r.Cluster.r_completed = n_shape && Cluster.audit_ok a);
  Fmt.pr "perfbench cluster shape (8 async replicas, %d requests): minor \
          words per request %.1f load, %.1f run, %.1f audit@."
    n_shape load_words run_words audit_words;
  record ~experiment:"s5" "cluster_load_minor_words_per_req" load_words;
  record ~experiment:"s5" "cluster_run_minor_words_per_req" run_words;
  record ~experiment:"s5" "cluster_audit_minor_words_per_req" audit_words;
  let stages =
    [ ("load", job load);
      ("run", job (fun () -> Cluster.run ~config reqs));
      ("audit", fun () -> assert (Cluster.audit_ok (Cluster.audit r))) ]
  in
  let key stage = "cluster_" ^ stage ^ "_us_per_req" in
  let w =
    Harness.trials ~per:n_shape ~unit:1e3
      (List.map (fun (stage, job) -> (key stage, job)) stages)
  in
  Fmt.pr "cluster wall per request:%s@."
    (String.concat ","
       (List.map
          (fun (stage, _) ->
            Printf.sprintf " %s %s" stage
              (wall_str "%.2f us [%.2f]" (Harness.get w (key stage))))
          stages));
  List.iter
    (fun (stage, _) -> record_wall ~experiment:"s5" w (key stage))
    stages;
  (* failover: 20% drops plus a crash of the elected leader, mid-run *)
  let failures = [ Cluster.Drop 0.2; Cluster.Crash_leader { at = 40.0 } ] in
  let r = run ~failures 3 in
  let r2 = run ~failures 3 in
  assert (String.equal (Cluster.dump r) (Cluster.dump r2));
  Fmt.pr "@.failover: 3 replicas, drop=0.2, leader crash @40 \
          (double-run dumps bit-identical: verified)@.";
  Fmt.pr "%a" Cluster.pp_summary r;
  let fo_lats = List.map (fun (t0, t1) -> t1 -. t0) r.Cluster.r_failovers in
  let fo_mean =
    match fo_lats with
    | [] -> 0.0
    | _ ->
      List.fold_left ( +. ) 0.0 fo_lats /. float_of_int (List.length fo_lats)
  in
  let a = Cluster.audit r in
  Fmt.pr "%a" Cluster.pp_audit a;
  assert (Cluster.audit_ok a);
  assert (a.Cluster.au_compared = n);
  record ~experiment:"s5" "fault_msgs_per_req"
    (Cluster.messages_per_request r);
  record ~experiment:"s5" "failover_detect_to_coord_sim" fo_mean;
  record ~experiment:"s5" "mean_latency_sim" (Cluster.mean_latency r);
  record ~experiment:"s5" "retry_pct"
    (100.0 *. float_of_int (Cluster.retried r) /. float_of_int n);
  record ~experiment:"s5" "audit_missing_pct"
    (100.0 *. float_of_int a.Cluster.au_missing /. float_of_int n);
  record ~experiment:"s5" "audit_diverged_pct"
    (100.0
    *. float_of_int (List.length a.Cluster.au_divergences)
    /. float_of_int n)

(* ------------------------------------------------------------------ *)
(* S6: structure-aware linear algebra — selection vs forced dense      *)
(* ------------------------------------------------------------------ *)

(* The paper's central bet, applied to linear algebra: a generic
   interface need not cost performance, because concept refinement lets
   the library select the algorithm the structure admits. Exact step
   counts (one per stored-element visit) are bit-identical across
   machines, so bench-diff hard-gates the *_step_speedup metrics; the
   wall-clock confirmations and the dispatch-overhead probe are wall
   keys. *)
let s6 () =
  section "S6" "gp_structla: concept-guided kernel selection vs forced dense";
  let open Gp_structla in
  let reg = Gp_concepts.Registry.create () in
  Decls.declare reg;
  let sel = Select.create () in
  let n = 256 in
  let seed = 5 in
  let reps =
    List.map
      (fun structure ->
        match Mat.generate ~structure ~n ~seed with
        | Some g -> (structure, Mat.to_dense g, Detect.classify g)
        | None -> assert false)
      Mat.structure_names
  in
  List.iter
    (fun (structure, _, m) -> assert (Mat.structure_name m = structure))
    reps;
  let x = Mat.generate_vec ~n ~seed in
  Fmt.pr "n=%d seed=%d — steps count stored-element visits, exactly@." n seed;
  let speedup sel_steps dense_steps =
    float_of_int dense_steps /. float_of_int sel_steps
  in
  let kernel_of = function
    | Ok (kernel, r) -> (kernel, r)
    | Error m -> failwith m
  in
  let row ~op ~structure ~kernel ~steps ~dense_steps =
    Fmt.pr "%-8s %-10s %-18s %10d %10d %9.1fx@." op structure kernel steps
      dense_steps
      (speedup steps dense_steps);
    if structure <> "dense" then
      record ~experiment:"s6"
        (Printf.sprintf "%s_%s_step_speedup" structure op)
        (speedup steps dense_steps)
  in
  Fmt.pr "@.%-8s %-10s %-18s %10s %10s %10s@." "op" "structure" "selected"
    "steps" "dense" "speedup";
  List.iter
    (fun (structure, d, m) ->
      let kernel, y = kernel_of (Select.matvec reg sel m x) in
      assert (Mat.vec_close ~eps:1e-6 y (Oracles.matvec_reference d x));
      row ~op:"matvec" ~structure ~kernel ~steps:(Kernels.matvec_steps m)
        ~dense_steps:(Kernels.matvec_steps (Mat.Dense d)))
    reps;
  Fmt.pr "@.";
  List.iter
    (fun (structure, d, m) ->
      let kernel, p = kernel_of (Select.matmul reg sel m m) in
      assert
        (Mat.dense_close ~eps:1e-6 (Mat.to_dense p)
           (Oracles.matmul_reference d d));
      row ~op:"matmul" ~structure ~kernel ~steps:(Kernels.matmul_steps m)
        ~dense_steps:(Kernels.matmul_steps (Mat.Dense d)))
    reps;
  Fmt.pr "@.";
  List.iter
    (fun (structure, d, m) ->
      let kernel, y = kernel_of (Select.solve reg sel m x) in
      assert (Mat.vec_close ~eps:1e-5 y (Oracles.solve_reference d x));
      row ~op:"solve" ~structure ~kernel ~steps:(Kernels.solve_steps m)
        ~dense_steps:(Kernels.solve_steps (Mat.Dense d)))
    reps;
  (* the acceptance floor: refinement must buy at least an order of
     magnitude on diagonal and 5x on banded, in exact steps at n=256 *)
  let get structure m = (fun (_, d, r) -> m d r)
      (List.find (fun (s, _, _) -> s = structure) reps)
  in
  let step_ratio structure =
    get structure (fun d r ->
        speedup (Kernels.matvec_steps r) (Kernels.matvec_steps (Mat.Dense d)))
  in
  assert (step_ratio "diagonal" >= 10.0);
  assert (step_ratio "banded" >= 5.0);
  Fmt.pr "@.acceptance: diagonal %.0fx >= 10x, banded %.1fx >= 5x (exact \
          matvec steps) — ok@."
    (step_ratio "diagonal") (step_ratio "banded");
  (* Resolution allocation: minor words per resolve over a fixed loop
     after a warm-up loop, an exact count *)
  let resolve_words =
    get "diagonal" (fun _ m ->
        let loops = 1000 in
        Harness.minor_words ~per:loops (fun () ->
            for _ = 1 to loops do
              ignore
                (Sys.opaque_identity (Select.resolve reg sel Select.Matvec m))
            done))
  in
  Fmt.pr "dispatch resolve alone (diagonal matvec): %.1f minor words@."
    resolve_words;
  record ~experiment:"s6" "resolve_matvec_minor_words" resolve_words;
  (* One full numeric miss as the dispatcher serves it (Select.miss:
     generate, classify, step count, select, kernel, checksum) over
     every structure and op at a fixed order, after one warm-up pass:
     minor and major words per miss, counts that repeat exactly (minor)
     or to within 0.1 % (major) *)
  let miss_n = 40 in
  let misses =
    List.concat_map
      (fun s -> List.map (fun op -> (s, op)) Select.[ Matvec; Matmul; Solve ])
      Mat.structure_names
  in
  let miss_pass () =
    List.iter
      (fun (structure, op) ->
        match Select.miss reg sel ~op ~structure ~n:miss_n ~seed with
        | Ok m -> ignore (Sys.opaque_identity m)
        | Error e -> failwith e)
      misses
  in
  let miss_words, miss_major =
    Harness.words ~per:(List.length misses) miss_pass
  in
  Fmt.pr "numeric miss at n=%d (generate -> checksum, %d shapes): %.1f minor \
          and %.1f major words per miss@." miss_n (List.length misses)
    miss_words miss_major;
  record ~experiment:"s6" "numeric_miss_minor_words" miss_words;
  record ~experiment:"s6" "numeric_miss_major_words" miss_major;
  (* wall-clock confirmation + dispatch overhead *)
  let dispatch op structure = get structure (fun _ m -> job (fun () -> op m)) in
  let matvec m = Select.matvec reg sel m x in
  let solve m = Select.solve reg sel m x in
  let w =
    Harness.trials
      [ ( "matvec_dense_ns",
          get "diagonal" (fun d _ -> job (fun () -> matvec (Mat.Dense d))) );
        ("matvec_diagonal_ns", dispatch matvec "diagonal");
        ("matvec_banded_ns", dispatch matvec "banded");
        ("matvec_csr_ns", dispatch matvec "csr");
        ("solve_dense_ns", dispatch solve "dense");
        ("solve_diagonal_ns", dispatch solve "diagonal");
        ( "resolve_matvec_ns",
          dispatch (Select.resolve reg sel Select.Matvec) "diagonal" ) ]
  in
  Fmt.pr "@.%-40s %12s@." "wall clock (dispatch included)" "ns/op";
  List.iter
    (fun (label, k) ->
      Fmt.pr "%-40s %12s@." label (ns_str (ns w k));
      record_wall ~experiment:"s6" w k)
    [ ("matvec diagonal, forced dense", "matvec_dense_ns");
      ("matvec diagonal, selected", "matvec_diagonal_ns");
      ("matvec banded, selected", "matvec_banded_ns");
      ("matvec csr, selected", "matvec_csr_ns");
      ("solve dense", "solve_dense_ns");
      ("solve diagonal, selected", "solve_diagonal_ns");
      ("dispatch resolve alone", "resolve_matvec_ns") ];
  let forced_dense = ns w "matvec_dense_ns"
  and t_diag = ns w "matvec_diagonal_ns" in
  Fmt.pr "wall speedups: diagonal %.1fx, banded %.1fx, csr %.1fx; \
          dispatch is %.1f%% of the diagonal matvec@."
    (forced_dense /. t_diag)
    (forced_dense /. ns w "matvec_banded_ns")
    (forced_dense /. ns w "matvec_csr_ns")
    (100.0 *. ns w "resolve_matvec_ns" /. t_diag)

(* ------------------------------------------------------------------ *)
(* S7: zero-allocation wire path — bytes per request                   *)
(* ------------------------------------------------------------------ *)

(* Allocation counts (Gc.allocated_bytes / minor_words deltas) are
   deterministic for a fixed workload, unlike wall clock, so bench-diff
   gates the committed numbers strictly. The tentpole ratio is measured
   on the isolated wire path — parse + render + digest over the real
   (line, response) pairs of one served workload — because the
   end-to-end serve shares its dispatch cost between both variants and
   would dilute the comparison. *)

let s7 () =
  section "S7"
    "zero-allocation wire path: bytes allocated per request, AST \
     baseline vs direct cursor parse + buffer render + streaming digest";
  let open Gp_service in
  let module Recorder = Gp_telemetry.Recorder in
  let n = 300 in
  let seed = 42 in
  (* the s1 mixed workload plus the s6 numeric kinds, so the wire path
     sees every payload shape including kernel-selection responses *)
  let mix =
    Workload.default_mix
    @ Request.[ (Kmatvec, 8); (Kmatmul, 4); (Ksolve, 4) ]
  in
  let reqs = Workload.generate ~mix ~seed ~n () in
  Fmt.pr "workload: n=%d seed=%d mix=[%a]@." n seed Workload.pp_mix mix;
  (* on a ticking clock, request durations, and with them the recorder's
     slowest-k entries, are the same on a loaded host as on an idle one,
     so every count below is exact *)
  let config =
    { Server.default_config with
      flight_capacity = 2 * n;
      now = Harness.ticking_clock () }
  in
  let server = Server.create ~config () in
  let lines = List.mapi (fun i r -> Wire.request_to_line ~id:i r) reqs in
  (* one served pass with the flight recorder on: yields the real
     (line, response) pairs for the wire phases, warms the caches for
     the steady-state serve probe, and leaves dossiers for the replay
     check *)
  let rsps = List.filter_map (Server.serve_line server) lines in
  assert (List.length rsps = n);
  let dossiers =
    match Server.flight server with
    | Some r -> Recorder.dossiers r
    | None -> assert false
  in
  assert (List.length dossiers = n);
  let pairs = Array.of_list (List.combine lines rsps) in
  let fn = float_of_int n in
  (* Warm-up settles shared-buffer growth; then allocation deltas over
     one full pass, divided per request. On this runtime (OCaml 5.1)
     [Gc.quick_stat]/[Gc.allocated_bytes] lag the current domain's
     minor counter, so the accurate minor-words primitive the harness
     reads is the source of truth; every allocation on these paths is
     far below the direct-to-major-heap threshold, so minor words x
     word-size is the full allocation story. *)
  let word_bytes = float_of_int (Sys.word_size / 8) in
  let measure f =
    let words = Harness.minor_words ~per:n f in
    (words *. word_bytes, words)
  in
  (* legacy wire path: json AST parse, Obj-tree render, digest of the
     materialized canonical string *)
  let legacy () =
    Array.iter
      (fun (line, rsp) ->
        (match Oracles.request_of_line_ast line with
        | Ok r -> ignore (Sys.opaque_identity r)
        | Error e -> failwith e);
        ignore (Sys.opaque_identity (Oracles.response_to_line_ast rsp));
        ignore
          (Sys.opaque_identity
             (Digest.string (Request.response_canonical rsp))))
      pairs
  in
  (* direct wire path: cursor parse into the typed IR, render into one
     reused buffer, streaming fingerprint *)
  let out = Buffer.create 1024 in
  let direct () =
    Array.iter
      (fun (line, rsp) ->
        (match Wire.request_of_line line with
        | Ok r -> ignore (Sys.opaque_identity r)
        | Error e -> failwith e);
        Buffer.clear out;
        Wire.response_into out rsp;
        ignore (Sys.opaque_identity (Buffer.length out));
        ignore (Sys.opaque_identity (Request.response_fingerprint rsp)))
      pairs
  in
  let legacy_bytes, legacy_minor = measure legacy in
  let direct_bytes, direct_minor = measure direct in
  let reduction = legacy_bytes /. direct_bytes in
  (* end-to-end steady state: full serve_line loop (dispatch + caches +
     recorder included) against warm caches *)
  let serve_lines srv lines () =
    List.iter
      (fun line -> ignore (Sys.opaque_identity (Server.serve_line srv line)))
      lines
  in
  let serve_bytes, serve_minor = measure (serve_lines server lines) in
  (* what one warm pass leaves to the major heap, promoted or allocated
     there: it starts on an empty minor heap and ends by promoting what
     it left live (the flight recorder's share included), so the count
     does not depend on where the minor heap stood *)
  let serve_major = Harness.promoted_words ~per:n (serve_lines server lines) in
  (* the warm served path a client sees, as [Server.serve_channel] runs
     it per line: serve_line, then the response rendered into one reused
     buffer — a hit on an answer entry copies its stored fragment. Exact
     minor words per request, and wall time per request *)
  let render_buf = Buffer.create 1024 in
  let serve_render () =
    List.iter
      (fun line ->
        match Server.serve_line server line with
        | None -> ()
        | Some rsp ->
          Buffer.clear render_buf;
          Wire.response_into render_buf rsp)
      lines
  in
  let _, serve_render_minor = measure serve_render in
  (* warm hits by kind: minor words of one served hit, wire parse to
     dossier, recorder on — the cache key, the lookup and the answer it
     hands back, with no rendering left on the path *)
  let hit_minor keep =
    let mine =
      List.filter_map
        (fun (r, line) -> if keep r then Some line else None)
        (List.combine reqs lines)
    in
    Harness.minor_words ~per:(List.length mine) (serve_lines server mine)
  in
  let hit_optimize =
    hit_minor (function Request.Optimize _ -> true | _ -> false)
  in
  let hit_check =
    hit_minor (function Request.Check { defs = None; _ } -> true | _ -> false)
  in
  let hit_closure =
    hit_minor (function Request.Closure _ -> true | _ -> false)
  in
  let hit_check_defs =
    hit_minor (function
      | Request.Check { defs = Some _; _ } -> true
      | _ -> false)
  in
  let hit_lint = hit_minor (function Request.Lint _ -> true | _ -> false) in
  (* the recorder's share: the same warm pass on a server without one *)
  let unrecorded =
    Server.create ~config:{ config with flight_capacity = 0 } ()
  in
  (* a first pass sights every line once; [measure]'s own first pass
     warms the caches and admits each line to the server's decoded-line
     table, so the measured pass is as warm as [server]'s *)
  serve_lines unrecorded lines ();
  let _, unrecorded_minor = measure (serve_lines unrecorded lines) in
  let recorder_minor = serve_minor -. unrecorded_minor in
  (* the warm request by layer: decode (the wire line to a request,
     decoded afresh), dispatch (budget, cache key, lookup, metrics:
     [Server.handle] on the decoded request, recorder off), record (the
     flight recorder: a recorded [serve_line] less an unrecorded one)
     and render (a warm answer into the reused buffer). A warm
     [serve_line] decodes through its decoded-line table instead: the
     decode-hit row is that lookup, on a table that holds every line.
     Exact minor words per request per layer (the record layer's is
     [recorder_minor]); wall time per request per layer, timed in the
     same trials as the serve_line + render pass *)
  let decoded =
    List.map
      (fun line ->
        match Wire.request_of_line line with
        | Ok (Some id, req) -> (id, req)
        | _ -> failwith "s7: a workload line did not decode with its id")
      lines
  in
  let warm_rsps = List.filter_map (Server.serve_line server) lines in
  let decode_pass () =
    List.iter
      (fun line -> ignore (Sys.opaque_identity (Wire.request_of_line line)))
      lines
  in
  let dispatch_pass () =
    List.iter
      (fun (id, req) ->
        ignore (Sys.opaque_identity (Server.handle ~id unrecorded req)))
      decoded
  in
  let render_pass () =
    List.iter
      (fun rsp ->
        Buffer.clear render_buf;
        Wire.response_into render_buf rsp)
      warm_rsps
  in
  let memo = Line_memo.create () in
  List.iter (fun line -> ignore (Line_memo.decode memo line)) lines;
  let decode_hit_pass () =
    List.iter
      (fun line -> ignore (Sys.opaque_identity (Line_memo.decode memo line)))
      lines
  in
  (* [measure]'s first pass admits every line, its second only hits *)
  let _, decode_hit_minor = measure decode_hit_pass in
  assert (Line_memo.length memo = n);
  let _, decode_minor = measure decode_pass in
  let _, dispatch_minor = measure dispatch_pass in
  let _, render_minor = measure render_pass in
  let layers = [ "decode"; "dispatch"; "record"; "render" ] in
  let w =
    Harness.trials ~n:41 ~per:n
      ~derive:
        [ ("warm_record_ns", fun t -> t "recorded" -. t "unrecorded") ]
      [ ("serve_render_ns", serve_render);
        ("warm_decode_ns", decode_pass);
        ("warm_decode_hit_ns", decode_hit_pass);
        ("warm_dispatch_ns", dispatch_pass);
        ("recorded", serve_lines server lines);
        ("unrecorded", serve_lines unrecorded lines);
        ("warm_render_ns", render_pass) ]
  in
  (* the text front ends: minor words of one parse, averaged over the
     perfbench payload shapes (lint programs, .gpc defs and optimize
     expressions) *)
  let parse_minor parse srcs =
    Harness.minor_words ~per:(Array.length srcs) (fun () ->
        Array.iter (fun src -> ignore (Sys.opaque_identity (parse src))) srcs)
  in
  let shapes f = Array.init Perf_shapes.period f in
  let lint_parse_minor =
    parse_minor Gp_stllint.Parser.parse_program (shapes Perf_shapes.lint_source)
  in
  let gpc_parse_minor =
    parse_minor Gp_concepts.Lang.parse_string (shapes Perf_shapes.gpc_source)
  in
  let expr_parse_minor =
    parse_minor Gp_simplicissimus.Sparser.parse
      (shapes Perf_shapes.optimize_expr)
  in
  Fmt.pr "@.%-44s %16s %14s@." "wire phase (parse + render + digest)"
    "bytes/request" "minor w/req";
  let row name b m = Fmt.pr "%-44s %16.1f %14.1f@." name b m in
  row "AST baseline" legacy_bytes legacy_minor;
  row "direct (reused buffers, streaming digest)" direct_bytes direct_minor;
  Fmt.pr "allocation reduction: %.1fx  (acceptance floor: >= 5x)@."
    reduction;
  assert (reduction >= 5.0);
  Fmt.pr "@.%-44s %16.1f %14.1f@."
    "end-to-end serve_line, warm caches" serve_bytes serve_minor;
  Fmt.pr "%-44s %16s %14.1f@." "  of which the flight recorder" ""
    recorder_minor;
  Fmt.pr "%-44s %16s %14.1f@." "  major words (promoted or major-allocated)"
    "" serve_major;
  Fmt.pr "%-44s %16s %14.1f@." "warm serve_line + render" ""
    serve_render_minor;
  Fmt.pr "  wall per request: %s@."
    (wall_str "median %.0f ns, IQR %.0f ns" (Harness.get w "serve_render_ns"));
  Fmt.pr "@.%-44s %14s %12s %10s@." "warm request by layer" "minor words"
    "ns/request" "IQR ns";
  List.iter2
    (fun name words ->
      let median, iqr = Harness.get w ("warm_" ^ name ^ "_ns") in
      Fmt.pr "%-44s %14.1f %12.0f %10.0f@." name words median iqr)
    layers
    [ decode_minor; dispatch_minor; recorder_minor; render_minor ];
  (let median, iqr = Harness.get w "warm_decode_hit_ns" in
   Fmt.pr "%-44s %14.1f %12.0f %10.0f@." "decode, served (decoded-line hit)"
     decode_hit_minor median iqr);
  Fmt.pr "  (medians over %d shuffled trials)@." w.Harness.trials;
  Fmt.pr "@.%-44s %14s@." "warm hit, served (recorder on)" "minor words";
  Fmt.pr "%-44s %14.1f@." "optimize" hit_optimize;
  Fmt.pr "%-44s %14.1f@." "check (no defs)" hit_check;
  Fmt.pr "%-44s %14.1f@." "closure" hit_closure;
  Fmt.pr "%-44s %14.1f@." "check (sandboxed, with defs)" hit_check_defs;
  Fmt.pr "%-44s %14.1f@." "lint" hit_lint;
  Fmt.pr "@.%-44s %14s@." "text front end, one parse" "minor words";
  Fmt.pr "%-44s %14.1f@." "STLlint program (perfbench lint shapes)"
    lint_parse_minor;
  Fmt.pr "%-44s %14.1f@." ".gpc defs (perfbench defs shape)" gpc_parse_minor;
  Fmt.pr "%-44s %14.1f@." "expression (perfbench optimize shapes)"
    expr_parse_minor;
  (* replay the recorded pass from cold caches: the streaming
     fingerprints must match the dossiers bit-for-bit *)
  let outcome =
    match Flight.replay dossiers with
    | Ok o -> o
    | Error m -> failwith m
  in
  assert (outcome.Flight.rep_total = n);
  assert (Flight.all_matched outcome);
  Fmt.pr "@.replay: %d/%d fingerprints matched (%d divergent) — the \
          streaming digest is bit-identical to the dossiers@."
    outcome.Flight.rep_matched outcome.Flight.rep_total
    (List.length outcome.Flight.rep_diverged);
  record ~experiment:"s7" "wire_legacy_bytes_per_request" legacy_bytes;
  record ~experiment:"s7" "wire_direct_bytes_per_request" direct_bytes;
  record ~experiment:"s7" "wire_alloc_reduction_speedup" reduction;
  record ~experiment:"s7" "wire_legacy_minor_words" legacy_minor;
  record ~experiment:"s7" "wire_direct_minor_words" direct_minor;
  record ~experiment:"s7" "serve_bytes_per_request" serve_bytes;
  record ~experiment:"s7" "serve_minor_words" serve_minor;
  record ~experiment:"s7" "serve_major_words" serve_major;
  record ~experiment:"s7" "serve_render_minor_words" serve_render_minor;
  record_wall ~experiment:"s7" w "serve_render_ns";
  record ~experiment:"s7" "hit_minor_words_optimize" hit_optimize;
  record ~experiment:"s7" "hit_minor_words_check" hit_check;
  record ~experiment:"s7" "hit_minor_words_closure" hit_closure;
  record ~experiment:"s7" "hit_minor_words_check_defs" hit_check_defs;
  record ~experiment:"s7" "hit_minor_words_lint" hit_lint;
  record ~experiment:"s7" "recorder_minor_words" recorder_minor;
  List.iter
    (fun name -> record_wall ~experiment:"s7" w ("warm_" ^ name ^ "_ns"))
    layers;
  record_wall ~experiment:"s7" w "warm_decode_hit_ns";
  record ~experiment:"s7" "warm_decode_minor_words" decode_minor;
  record ~experiment:"s7" "warm_decode_hit_minor_words" decode_hit_minor;
  record ~experiment:"s7" "warm_dispatch_minor_words" dispatch_minor;
  record ~experiment:"s7" "warm_render_minor_words" render_minor;
  record ~experiment:"s7" "lint_parse_minor_words" lint_parse_minor;
  record ~experiment:"s7" "gpc_parse_minor_words" gpc_parse_minor;
  record ~experiment:"s7" "expr_parse_minor_words" expr_parse_minor;
  record ~experiment:"s7" "replay_diverged_pct"
    (100.0
    *. float_of_int (List.length outcome.Flight.rep_diverged)
    /. fn)

(* ------------------------------------------------------------------ *)
(* S8: empirical complexity verification (ISSUE 8 / ROADMAP item 1)    *)
(* ------------------------------------------------------------------ *)

(* Sweep the gp_complexity_obs catalog, fit growth models to the exact
   step/message counts, and record the fitted degree and residual per
   operation. Every gated number is an exact count over a fixed ladder,
   so BENCH_s8.json is hard-gated by bench-diff like s5/s6/s7
   (_fitted_degree keys must match exactly; _residual keys may only
   shrink). Each operation's wall time at one rung (n = 128) rides
   along as a wall key. *)
let s8 () =
  section "S8"
    "empirical asymptotics: fitted growth vs declared Complexity bounds";
  let open Gp_complexity_obs in
  let entries =
    List.map (fun op -> Report.analyze (Sweep.run op)) (Catalog.ops ())
  in
  let wall_key op = op.Sweep.op_name ^ "_wall_ns" in
  let w =
    Harness.trials
      (List.map
         (fun op -> (wall_key op, job (fun () -> op.Sweep.op_measure 128)))
         (Catalog.ops ()))
  in
  Report.table Fmt.stdout entries;
  (* the harness must agree with itself: genuine operations pass, the
     planted mis-declared oracle is flagged *)
  assert (Report.ok entries);
  assert (
    List.exists
      (fun e ->
        String.equal e.Report.e_series.Sweep.sr_op.Sweep.op_name
          Catalog.oracle_name
        && e.Report.e_verdict = Report.Violation)
      entries);
  let unexpected =
    List.length (List.filter (fun e -> not e.Report.e_ok) entries)
  in
  List.iter
    (fun e ->
      let name = e.Report.e_series.Sweep.sr_op.Sweep.op_name in
      record ~experiment:"s8"
        (name ^ "_fitted_degree")
        (Report.fitted_degree e.Report.e_best);
      record ~experiment:"s8" (name ^ "_residual")
        e.Report.e_best.Fit.f_residual;
      record_wall ~experiment:"s8" w (wall_key e.Report.e_series.Sweep.sr_op))
    entries;
  record ~experiment:"s8" "unexpected_verdicts_pct"
    (100.0 *. float_of_int unexpected /. float_of_int (List.length entries))

(* ------------------------------------------------------------------ *)
(* S9: distributed tracing — journeys, fleet metrics, attribution      *)
(* ------------------------------------------------------------------ *)

(* The s5 failover scenario (240 requests, 20% drops, leader crash
   @40), run with tracing on. The simulated side is bit-identical
   across runs, so everything except the wall-clock overhead probes can
   be gated exactly:
     - tracing changes nothing simulated: the traced run's record dump
       equals the untraced run's, byte for byte;
     - every completed request assembles into a well-formed cross-node
       tree (single cluster.request root, parents resolve, causal
       nesting) even under drops + failover;
     - the trace dump itself is deterministic (double-run bit-identical)
       and round-trips through load;
     - fleet percentiles come off the run's records, and the
       attribution decomposes tail latency into
       queueing/retry/election-stall/service.
   Wall-clock probes (trace-off vs trace-on run time) ride along as wall
   keys. *)
let s9 () =
  section "S9" "gp_tracing: cluster-wide distributed tracing and \
                tail-latency attribution";
  let open Gp_cluster in
  let open Gp_tracing in
  let n = 240 in
  let seed = 11 in
  let reqs = Gp_service.Workload.generate ~seed ~n () |> Array.of_list in
  let failures = [ Cluster.Drop 0.2; Cluster.Crash_leader { at = 40.0 } ] in
  let run ~trace () =
    Cluster.run
      ~config:{ Cluster.default_config with replicas = 3; failures; trace } reqs
  in
  Fmt.pr "workload: n=%d seed=%d, 3 replicas, drop=0.2, leader crash @@40 \
          — the s5 failover scenario, traced@." n seed;
  let r_off = run ~trace:false () in
  let r = run ~trace:true () in
  assert (String.equal (Cluster.dump r_off) (Cluster.dump r));
  Fmt.pr "tracing is simulation-invariant: traced and untraced record \
          dumps bit-identical (verified)@.";
  let ts = Trace_set.of_result r in
  let doc = Trace_set.dump ts in
  let r2 = run ~trace:true () in
  assert (String.equal doc Trace_set.(dump (of_result r2)));
  (match Trace_set.load doc with
  | Error e -> failwith ("s9: trace dump failed to load: " ^ e)
  | Ok ts' -> assert (String.equal doc (Trace_set.dump ts')));
  Fmt.pr "trace dump: double-run bit-identical and load round-trips \
          (verified)@.";
  let v = Trace_set.validate ts in
  Fmt.pr "@.%a" Trace_set.pp_validation v;
  assert (r.Cluster.r_completed = n);
  assert (v.Trace_set.v_requests = n);
  assert (Trace_set.validation_ok v);
  let spans_total =
    List.fold_left (fun a (_, sps) -> a + List.length sps) 0
      ts.Trace_set.ts_lanes
  in
  record ~experiment:"s9" "spans_total" (float_of_int spans_total);
  record ~experiment:"s9" "spans_per_request"
    (float_of_int spans_total /. float_of_int n);
  record ~experiment:"s9" "malformed_pct"
    (100.0
    *. float_of_int (List.length v.Trace_set.v_malformed)
    /. float_of_int n);
  record ~experiment:"s9" "aux_traces" (float_of_int v.Trace_set.v_aux);
  Fmt.pr "@.fleet metrics (read off the run's counts and records):@.%a"
    Fleet.pp_report r;
  (match Fleet.request_percentiles r with
  | None -> assert false
  | Some pc ->
    assert (pc.Fleet.pc_count = n);
    record ~experiment:"s9" "latency_p50_sim" pc.Fleet.pc_p50;
    record ~experiment:"s9" "latency_p90_sim" pc.Fleet.pc_p90;
    record ~experiment:"s9" "latency_p99_sim" pc.Fleet.pc_p99);
  let sgs = Attribution.of_journeys (Trace_set.journeys ts) in
  assert (List.length sgs = n);
  let su = Attribution.summarize sgs in
  Fmt.pr "@.tail-latency attribution:@.%a" Attribution.pp_summary su;
  Fmt.pr "slowest requests:@.%a" Attribution.pp_table
    (Attribution.slowest ~k:5 sgs);
  record ~experiment:"s9" "attr_mean_total_sim" su.Attribution.su_mean_total;
  record ~experiment:"s9" "attr_mean_queue_sim" su.Attribution.su_mean_queue;
  record ~experiment:"s9" "attr_mean_retry_sim" su.Attribution.su_mean_retry;
  record ~experiment:"s9" "attr_mean_stall_sim" su.Attribution.su_mean_stall;
  record ~experiment:"s9" "attr_mean_service_sim"
    su.Attribution.su_mean_service;
  List.iter
    (fun (c, k) ->
      record ~experiment:"s9"
        ("dominant_" ^ Attribution.cause_name c ^ "_pct")
        (100.0 *. float_of_int k /. float_of_int n))
    su.Attribution.su_by_cause;
  (* wall-clock overhead probes *)
  let w =
    Harness.trials
      ~derive:
        [ ( "trace_overhead_ratio",
            fun t -> t "run_traced_ns" /. t "run_untraced_ns" ) ]
      [ ("run_untraced_ns", job (run ~trace:false));
        ("run_traced_ns", job (run ~trace:true)) ]
  in
  Fmt.pr "@.wall clock: untraced %s, traced %s per run (%.2fx)@."
    (ns_str (ns w "run_untraced_ns"))
    (ns_str (ns w "run_traced_ns"))
    (ns w "trace_overhead_ratio");
  record_wall ~experiment:"s9" w "run_untraced_ns";
  record_wall ~experiment:"s9" w "run_traced_ns";
  record_wall ~experiment:"s9" w "trace_overhead_ratio"

let s10 () =
  section "S10" "gp_scenario: elastic cluster scenarios — open-loop \
                 arrivals, hot-key mitigation, load shedding, and a \
                 million simulated users";
  let open Gp_cluster in
  let open Gp_scenario in
  let seed = 1 in
  let scenario name =
    match Scenario.find name with
    | Some t -> t
    | None -> failwith ("s10: no scenario named " ^ name)
  in
  (* Every scenario below runs at full scale: all gated numbers are
     simulated time and exact counts. Only the wall probe at the end
     reads a clock. *)

  (* -- hot-key flood: the mitigation's measured win ---------------- *)
  let n = Scenario.flood_n ~quick:false in
  let reqs = Scenario.flood_reqs ~seed n in
  let arm promote =
    Cluster.run
      ~config:(Scenario.flood_config ~quick:false ~seed ~promote n) reqs
  in
  Fmt.pr "hot-key flood, n=%d seed=%d: zipf reads behind a small LRU, \
          promotion on vs off@." n seed;
  let r_on = arm true in
  let r_off = arm false in
  let p99_on = Cluster.latency_percentile r_on 0.99 in
  let p99_off = Cluster.latency_percentile r_off 0.99 in
  let miss_on = 1.0 -. Cluster.hit_ratio r_on in
  let miss_off = 1.0 -. Cluster.hit_ratio r_off in
  Fmt.pr "  promotion on:  p99 %.2f sim, miss %.2f%%, %d promotion(s) \
          (%s)@."
    p99_on (100.0 *. miss_on) r_on.Cluster.r_promotions
    (String.concat ", " r_on.Cluster.r_promoted_keys);
  Fmt.pr "  promotion off: p99 %.2f sim, miss %.2f%%@." p99_off
    (100.0 *. miss_off);
  Fmt.pr "  promotion wins: p99 %.2fx, miss ratio %.2fx@."
    (p99_off /. p99_on) (miss_off /. miss_on);
  assert (r_on.Cluster.r_promotions > 0);
  assert (r_off.Cluster.r_promotions = 0);
  assert (p99_on < p99_off);
  assert (miss_on < miss_off);
  record ~experiment:"s10" "flood_requests" (float_of_int n);
  record ~experiment:"s10" "flood_promotions"
    (float_of_int r_on.Cluster.r_promotions);
  record ~experiment:"s10" "flood_p99_on_sim" p99_on;
  record ~experiment:"s10" "flood_p99_off_sim" p99_off;
  record ~experiment:"s10" "flood_p99_speedup" (p99_off /. p99_on);
  record ~experiment:"s10" "flood_miss_on_pct" (100.0 *. miss_on);
  record ~experiment:"s10" "flood_miss_off_pct" (100.0 *. miss_off);
  record ~experiment:"s10" "flood_miss_speedup" (miss_off /. miss_on);

  (* -- elastic join/leave: minimal movement -------------------------- *)
  let eo = Scenario.run ~seed ~audit:true (scenario "elastic") in
  Fmt.pr "@.%a" Scenario.pp_outcome eo;
  assert (Scenario.ok eo);
  assert (eo.Scenario.o_moved <= eo.Scenario.o_moved_bound);
  record ~experiment:"s10" "elastic_joined"
    (float_of_int eo.Scenario.o_joined);
  record ~experiment:"s10" "elastic_left" (float_of_int eo.Scenario.o_left);
  record ~experiment:"s10" "elastic_handoffs"
    (float_of_int eo.Scenario.o_handoffs);
  record ~experiment:"s10" "elastic_moved_keys"
    (float_of_int eo.Scenario.o_moved);
  record ~experiment:"s10" "elastic_movement_bound"
    (float_of_int eo.Scenario.o_moved_bound);

  (* -- multi-tenant overload: shed, never hang ----------------------- *)
  let t_o = Scenario.run ~seed ~audit:true (scenario "tenants") in
  Fmt.pr "@.%a" Scenario.pp_outcome t_o;
  assert (Scenario.ok t_o);
  assert (t_o.Scenario.o_shed > 0);
  assert (t_o.Scenario.o_peak_queue <= 48);
  (match t_o.Scenario.o_audit with
  | None -> assert false
  | Some a ->
    (* shed verdicts are excluded from the fingerprint diff by
       construction, and the accounting identity still closes *)
    assert (a.Cluster.au_shed > 0);
    assert (
      a.Cluster.au_compared + a.Cluster.au_missing + a.Cluster.au_shed
      = a.Cluster.au_total);
    assert (a.Cluster.au_divergences = []));
  record ~experiment:"s10" "overload_shed" (float_of_int t_o.Scenario.o_shed);
  record ~experiment:"s10" "overload_shed_ratio" t_o.Scenario.o_shed_ratio;
  record ~experiment:"s10" "overload_peak_queue"
    (float_of_int t_o.Scenario.o_peak_queue);
  List.iter
    (fun t ->
      record ~experiment:"s10"
        ("tenant_" ^ t.Scenario.tn_name ^ "_served_pct")
        (100.0 *. t.Scenario.tn_ratio))
    t_o.Scenario.o_tenants;

  (* -- the headline: a million simulated users ----------------------- *)
  Fmt.pr "@.million: 1e6 open-loop requests across 32 replicas, every \
          answer audited against a single node...@.";
  let million () = Scenario.run ~seed ~audit:true (scenario "million") in
  let mo = million () in
  Fmt.pr "%a" Scenario.pp_outcome mo;
  assert (Scenario.ok mo);
  assert (mo.Scenario.o_requests >= 1_000_000);
  assert (mo.Scenario.o_replicas >= 32);
  assert (mo.Scenario.o_completed = mo.Scenario.o_requests);
  (match mo.Scenario.o_audit with
  | None -> assert false
  | Some a ->
    assert (a.Cluster.au_missing = 0);
    assert (a.Cluster.au_divergences = []);
    record ~experiment:"s10" "million_audit_compared"
      (float_of_int a.Cluster.au_compared);
    record ~experiment:"s10" "million_audit_divergent_pct"
      (100.0
      *. float_of_int (List.length a.Cluster.au_divergences)
      /. float_of_int a.Cluster.au_total));
  record ~experiment:"s10" "million_requests"
    (float_of_int mo.Scenario.o_requests);
  record ~experiment:"s10" "million_replicas"
    (float_of_int mo.Scenario.o_replicas);
  record ~experiment:"s10" "million_completed_pct"
    (100.0
    *. float_of_int mo.Scenario.o_completed
    /. float_of_int mo.Scenario.o_requests);
  record ~experiment:"s10" "million_shed" (float_of_int mo.Scenario.o_shed);
  record ~experiment:"s10" "million_p50_sim" mo.Scenario.o_p50;
  record ~experiment:"s10" "million_p99_sim" mo.Scenario.o_p99;
  record ~experiment:"s10" "million_hit_pct"
    (100.0 *. mo.Scenario.o_hit_ratio);
  record ~experiment:"s10" "million_peak_queue"
    (float_of_int mo.Scenario.o_peak_queue);
  (* the wall probe *)
  let requests = float_of_int mo.Scenario.o_requests in
  let w =
    Harness.trials
      ~derive:
        [ ( "million_req_per_wall_sec",
            fun t -> requests /. (t "million_wall_ns" *. 1e-9) ) ]
      [ ("million_wall_ns", job million) ]
  in
  Fmt.pr "@.wall clock: %s for the audited million (%.0f req/s including \
          the single-node replay)@."
    (ns_str (ns w "million_wall_ns"))
    (ns w "million_req_per_wall_sec");
  record_wall ~experiment:"s10" w "million_wall_ns";
  record_wall ~experiment:"s10" w "million_req_per_wall_sec"

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let experiments =
  [ ("f1", f1_f2); ("f3", f3); ("f4", f4); ("f5", f5); ("f6", f6);
    ("c1", c1); ("c2", c2); ("c3", c3); ("c5", c5); ("c6", c6); ("c8", c8);
    ("a1", a1); ("s1", s1); ("s2", s2); ("s3", s3); ("s4", s4);
    ("s5", s5); ("s6", s6); ("s7", s7); ("s8", s8); ("s9", s9);
    ("s10", s10) ]

let json_path = ref None

let () =
  let rec parse = function
    | [] -> []
    | "--quick" :: rest ->
      Harness.quick := true;
      parse rest
    | "--json" :: path :: rest ->
      json_path := Some path;
      parse rest
    | a :: rest when String.length a > 0 && a.[0] = '-' -> parse rest
    | a :: rest -> a :: parse rest
  in
  let requested = parse (List.tl (Array.to_list Sys.argv)) in
  let todo =
    if requested = [] then experiments
    else
      List.filter (fun (id, _) -> List.mem id requested) experiments
  in
  Fmt.pr "Generic Programming and High-Performance Libraries — benchmark \
          harness@.";
  Fmt.pr "experiments: %a@."
    Fmt.(list ~sep:sp string)
    (List.map fst todo);
  List.iter (fun (_, f) -> Harness.isolated f) todo;
  Fmt.pr "@.%s@.all experiments complete.@." line;
  match !json_path with
  | Some path ->
    Harness.write_json path;
    Fmt.pr "results written to %s@." path
  | None -> ()
