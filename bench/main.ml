(* The benchmark harness: one section per figure/claim of the paper
   (experiment ids from DESIGN.md). Each timed comparison is a Bechamel
   Test.make; shape-only experiments print the series the paper implies.
   EXPERIMENTS.md records paper-statement vs the numbers printed here.

     dune exec bench/main.exe            # everything
     dune exec bench/main.exe -- f5 c1   # selected experiments *)

open Bechamel
open Toolkit

(* the serving and cluster sections build their servers over this *)
let declare_standard = Gp_standard.Standard.declare

(* ------------------------------------------------------------------ *)
(* Timing helpers                                                      *)
(* ------------------------------------------------------------------ *)

let quota = ref 0.5

(* ns/run for a thunk, via Bechamel OLS on the monotonic clock. *)
let time_ns name f =
  let test = Test.make ~name (Staged.stage f) in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second !quota) ~kde:(Some 10) ()
  in
  let raw = Benchmark.all cfg instances test in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  match Hashtbl.fold (fun _ r acc -> r :: acc) results [] with
  | [ r ] -> (
    match Analyze.OLS.estimates r with
    | Some [ e ] -> e
    | _ -> nan)
  | _ -> nan

let pp_ns ppf ns =
  if Float.is_nan ns then Fmt.string ppf "n/a"
  else if ns < 1e3 then Fmt.pf ppf "%.0f ns" ns
  else if ns < 1e6 then Fmt.pf ppf "%.2f us" (ns /. 1e3)
  else if ns < 1e9 then Fmt.pf ppf "%.2f ms" (ns /. 1e6)
  else Fmt.pf ppf "%.2f s" (ns /. 1e9)

let ns_str ns = Fmt.str "%a" pp_ns ns

let line = String.make 74 '='
let thin = String.make 74 '-'

let section id title =
  Fmt.pr "@.%s@.%s — %s@.%s@." line id title thin

(* ------------------------------------------------------------------ *)
(* Machine-readable results (--json FILE)                              *)
(* ------------------------------------------------------------------ *)

(* Sections record named scalar results (ns/op, speedups); at exit the
   driver writes them as one JSON object keyed by experiment id, so CI
   can diff measured numbers across commits without scraping stdout. *)
let json_path : string option ref = ref None
let metrics : (string * string * float) list ref = ref []

let record ~experiment name v = metrics := (experiment, name, v) :: !metrics

(* Written via a temp file + rename, so a crash mid-write never leaves
   a truncated JSON for bench-diff to choke on. *)
let write_json path =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  let all = List.rev !metrics in
  let secs =
    List.fold_left
      (fun acc (s, _, _) -> if List.mem s acc then acc else acc @ [ s ])
      [] all
  in
  Printf.fprintf oc "{\n  \"sections\": {\n";
  List.iteri
    (fun i sec ->
      Printf.fprintf oc "    %S: {\n" sec;
      let rows = List.filter (fun (s, _, _) -> String.equal s sec) all in
      List.iteri
        (fun j (_, name, v) ->
          let value =
            if Float.is_nan v then "null" else Printf.sprintf "%.3f" v
          in
          Printf.fprintf oc "      %S: %s%s\n" name value
            (if j = List.length rows - 1 then "" else ","))
        rows;
      Printf.fprintf oc "    }%s\n" (if i = List.length secs - 1 then "" else ","))
    secs;
  Printf.fprintf oc "  }\n}\n";
  close_out oc;
  Sys.rename tmp path

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
  let t =
    time_ns "incidence-graph check" (fun () ->
        Sys.opaque_identity
          (Check.models reg "IncidenceGraph" [ n "adjacency_list" ]))
  in
  Fmt.pr "@.full structural check of IncidenceGraph: %s per check@." (ns_str t)

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
      let t_mixed =
        time_ns (Printf.sprintf "gemm_mixed %d" sz) (fun () ->
            Sys.opaque_identity (Dense.gemm_mixed a b))
      in
      let t_promoted =
        time_ns (Printf.sprintf "gemm_promoted %d" sz) (fun () ->
            Sys.opaque_identity (Dense.gemm_promoted a b))
      in
      Fmt.pr "%6d %14s %14s %8.2fx %11.1fx@." sz (ns_str t_mixed) (ns_str t_promoted) (t_promoted /. t_mixed)
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
      let t =
        time_ns
          (Printf.sprintf "lint %d blocks" blocks)
          (fun () -> Sys.opaque_identity (Interp.check program))
      in
      Fmt.pr "%-10d %12d %14s@." blocks count (ns_str t))
    [ 10; 50; 250 ]

(* ------------------------------------------------------------------ *)
(* F5: Simplicissimus (Fig. 5 / Section 3.2)                           *)
(* ------------------------------------------------------------------ *)

let f5 () =
  section "F5" "Simplicissimus: Fig. 5 rules, certification, rewrite payoff";
  let open Gp_simplicissimus in
  let insts = Instances.standard () in
  let rules = Rules.builtin @ [ Rules.lidia_inverse ] in
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
  let t_before =
    time_ns "eval original" (fun () -> Sys.opaque_identity (Eval.eval ~env e))
  in
  let t_after =
    time_ns "eval simplified" (fun () ->
        Sys.opaque_identity (Eval.eval ~env simplified))
  in
  Fmt.pr "@.redex-heavy expression: %d ops -> %d ops@." (Expr.op_count e)
    (Expr.op_count simplified);
  Fmt.pr "evaluation: %s -> %s (%.1fx)@." (ns_str t_before) (ns_str t_after)
    (t_before /. t_after);
  (* rewriting throughput *)
  let t_rw =
    time_ns "rewrite pass" (fun () ->
        Sys.opaque_identity (Engine.rewrite ~rules ~insts e))
  in
  Fmt.pr "one full rewrite pass over that expression: %s@." (ns_str t_rw)

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
  (* amortisation: one generic group proof, checked per instance *)
  let instances = Theory.group_instances in
  let thm0 = Theorems.group_right_inverse Theory.int_add in
  Fmt.pr "@.group right-inverse proof: %d inference nodes@."
    (Deduction.size thm0.Theorems.proof);
  let t_one =
    time_ns "check one instance" (fun () ->
        Sys.opaque_identity
          (Theorems.verify
             ~axioms:(Theory.group_minimal Theory.int_add)
             thm0))
  in
  let t_all =
    time_ns "check all instances" (fun () ->
        Sys.opaque_identity
          (Theorems.check_for_instances
             ~theorem:Theorems.group_right_inverse
             ~axioms:Theory.group_minimal instances))
  in
  Fmt.pr "checking: %s per instance; %s for %d instances (one generic \
          proof, written once)@."
    (ns_str t_one) (ns_str t_all) (List.length instances);
  Fmt.pr "(paper: 'it is much more efficient to check a given proof than to \
          search for [one]'; checking is microseconds)@."

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
      let t_vec =
        time_ns
          (Printf.sprintf "introsort %d" n)
          (fun () ->
            let a = Varray.of_list ~dummy:0 data in
            Algorithms.sort ~lt:( < ) (Varray.begin_ a, Varray.end_ a))
      in
      let t_list =
        time_ns
          (Printf.sprintf "list mergesort %d" n)
          (fun () ->
            let l = Dlist.of_list data in
            Algorithms.sort ~lt:( < ) (Dlist.begin_ l, Dlist.end_ l))
      in
      let t_fwd =
        time_ns
          (Printf.sprintf "restricted forward %d" n)
          (fun () ->
            let a = Varray.of_list ~dummy:0 data in
            Algorithms.sort ~lt:( < )
              ( Iter.restrict Iter.Forward (Varray.begin_ a),
                Iter.restrict Iter.Forward (Varray.end_ a) ))
      in
      Fmt.pr "%8d %16s %16s %18s@." n (ns_str t_vec) (ns_str t_list) (ns_str t_fwd))
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
      let t_find =
        time_ns (Printf.sprintf "find %d" n) (fun () ->
            Sys.opaque_identity
              (Algorithms.find ~eq:Int.equal target
                 (Varray.begin_ a, Varray.end_ a)))
      in
      let t_lb =
        time_ns (Printf.sprintf "lower_bound %d" n) (fun () ->
            Sys.opaque_identity
              (Algorithms.lower_bound ~lt:( < ) target
                 (Varray.begin_ a, Varray.end_ a)))
      in
      let count_ops f =
        let c = Iter.counters () in
        let first = Iter.counting c (Varray.begin_ a) in
        ignore (f (first, Varray.end_ a));
        c.Iter.derefs
      in
      let d_find = count_ops (Algorithms.find ~eq:Int.equal target) in
      let d_lb = count_ops (Algorithms.lower_bound ~lt:( < ) target) in
      Fmt.pr "%9d %13s %13s %8.0fx %12d %12d@." n (ns_str t_find) (ns_str t_lb)
        (t_find /. t_lb) d_find d_lb)
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
  let t_seq =
    time_ns "seq count primes" (fun () ->
        Sys.opaque_identity (Datapar.Seq_exec.count is_prime a))
  in
  Fmt.pr "@.count primes by trial division over %d candidates \
          (compute-bound):@."
    n;
  Fmt.pr "%12s %14s %9s@." "executor" "time" "speedup";
  Fmt.pr "%12s %14s %9s@." "sequential" (ns_str t_seq) "1.00x";
  List.iter
    (fun d ->
      let module P = Datapar.Par_exec (struct
        let domains = d
      end) in
      let t =
        time_ns
          (Printf.sprintf "par%d count primes" d)
          (fun () -> Sys.opaque_identity (P.count is_prime a))
      in
      Fmt.pr "%12s %14s %8.2fx@."
        (Printf.sprintf "%d domains" d)
        (ns_str t) (t_seq /. t))
    [ 2; 4 ];
  (* memory-bound contrast: plain sum and scan barely gain — an honest
     limit of chunked parallelism on bandwidth-bound kernels *)
  let m = 2_000_000 in
  let b = Array.init m (fun i -> (i * 131) mod 1000) in
  let t_sum_seq =
    time_ns "seq reduce" (fun () ->
        Sys.opaque_identity (Datapar.Seq_exec.reduce Datapar.int_sum b))
  in
  let module P4 = Datapar.Par_exec (struct
    let domains = 4
  end) in
  let t_sum_par =
    time_ns "par reduce" (fun () ->
        Sys.opaque_identity (P4.reduce Datapar.int_sum b))
  in
  let t_scan_seq =
    time_ns "seq scan" (fun () ->
        Sys.opaque_identity (Datapar.Seq_exec.scan Datapar.int_sum b))
  in
  let t_scan_par =
    time_ns "par scan" (fun () ->
        Sys.opaque_identity (P4.scan Datapar.int_sum b))
  in
  Fmt.pr
    "@.memory-bound contrast over %d ints (4 domains): reduce %s -> %s \
     (%.2fx), scan %s -> %s (%.2fx)@."
    m (ns_str t_sum_seq) (ns_str t_sum_par)
    (t_sum_seq /. t_sum_par)
    (ns_str t_scan_seq) (ns_str t_scan_par)
    (t_scan_seq /. t_scan_par)

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
  (* 2. rewriting with a FALSE model declaration: (int, -) asserted a
     Monoid fires the left-identity rule 0 - x -> x, which is wrong *)
  let open Gp_simplicissimus in
  Fmt.pr "@.concept guards are load-bearing: assert a false model and \
          rewriting breaks semantics@.";
  let honest = Instances.standard () in
  let bogus = Instances.standard () in
  Instances.add bogus ~ty:"int" ~op:"-" Instances.Monoid
    ~identity:(Expr.VInt 0);
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
  show "honest instance table:" honest;
  show "bogus (int,-) Monoid:" bogus;
  Fmt.pr "  (subtraction has a right identity but no left identity; the \
          checker's axiom@.   warnings and the qcheck law tests are what \
          catch such a false declaration)@.";
  (* 3. the cost of checked iterators vs raw array access *)
  let open Gp_sequence in
  let nitems = 200_000 in
  let arr = Array.init nitems (fun i -> i land 1023) in
  let va = Varray.of_list ~dummy:0 (Array.to_list arr) in
  let t_raw =
    time_ns "raw array fold" (fun () ->
        Sys.opaque_identity (Array.fold_left ( + ) 0 arr))
  in
  let t_iter =
    time_ns "checked iterator fold" (fun () ->
        Sys.opaque_identity
          (Algorithms.fold ( + ) 0 (Varray.begin_ va, Varray.end_ va)))
  in
  Fmt.pr "@.abstraction cost: summing %d ints@." nitems;
  Fmt.pr "  raw array          %s@." (ns_str t_raw);
  Fmt.pr "  checked iterators  %s  (%.1fx: the price of versioned, \
          category-checked positions)@."
    (ns_str t_iter) (t_iter /. t_raw)

(* ------------------------------------------------------------------ *)
(* S1: service throughput — cold vs warm caches                        *)
(* ------------------------------------------------------------------ *)

let s1 () =
  section "S1" "gp_service throughput: cold vs warm caches under a Zipf \
                workload";
  let open Gp_service in
  let n = if !quota < 0.5 then 150 else 600 in
  let seed = 42 in
  let reqs = Workload.generate ~seed ~n () in
  let replay = Workload.generate ~seed ~n () in
  assert (Workload.fingerprint reqs = Workload.fingerprint replay);
  Fmt.pr "workload: n=%d seed=%d mix=[%a]@." n seed Workload.pp_mix
    Workload.default_mix;
  Fmt.pr "fingerprint: %s (replay deterministic: verified)@."
    (Workload.fingerprint reqs);
  let run server =
    let t0 = Unix.gettimeofday () in
    let rsps = Server.process server reqs in
    let dt = Unix.gettimeofday () -. t0 in
    let ok = List.length (List.filter Request.ok rsps) in
    (dt, float_of_int n /. dt, ok)
  in
  (* no-cache baseline: every request recomputed from scratch *)
  let nocache =
    Server.create
      ~config:{ Server.default_config with caching = false }
      ~declare_standard ()
  in
  let base_dt, base_rps, base_ok = run nocache in
  (* cold: fresh caches, first pass pays every miss; warm: the same
     server replays the identical stream against populated caches *)
  let server = Server.create ~declare_standard () in
  let cold_dt, cold_rps, cold_ok = run server in
  let warm_dt, warm_rps, warm_ok = run server in
  Fmt.pr "@.%-10s %10s %12s %6s@." "pass" "wall" "req/s" "ok";
  let row name dt rps ok =
    Fmt.pr "%-10s %9.1fms %12.0f %6d@." name (dt *. 1e3) rps ok
  in
  row "no-cache" base_dt base_rps base_ok;
  row "cold" cold_dt cold_rps cold_ok;
  row "warm" warm_dt warm_rps warm_ok;
  Fmt.pr "@.warm/cold speedup: %.2fx   warm/no-cache: %.2fx   %s@."
    (warm_rps /. cold_rps)
    (warm_rps /. base_rps)
    (if warm_rps > cold_rps then "(warm strictly faster: yes)"
     else "(WARM NOT FASTER — cache regression?)");
  let per_request dt = dt *. 1e9 /. float_of_int n in
  record ~experiment:"s1" "nocache_ns" (per_request base_dt);
  record ~experiment:"s1" "cold_ns" (per_request cold_dt);
  record ~experiment:"s1" "warm_ns" (per_request warm_dt);
  record ~experiment:"s1" "warm_cold_speedup" (warm_rps /. cold_rps);
  record ~experiment:"s1" "warm_nocache_speedup" (warm_rps /. base_rps);
  Fmt.pr "@.%s@." (Server.report server);
  Fmt.pr "(the report aggregates both passes; hit ratios mix the cold \
          misses with the warm hits)@."

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
let rewrite_world ~quick =
  let open Gp_simplicissimus in
  let nentries = if quick then 60 else 250 in
  let nrules = if quick then 50 else 200 in
  let insts = Instances.create () in
  for i = 0 to nentries - 1 do
    Instances.add insts
      ~ty:(Printf.sprintf "u%d" i)
      ~op:"+" ~identity:(Expr.VInt 0) ~inverse:"neg" Instances.Abelian_group
  done;
  let user_rules =
    List.init nrules (fun i ->
        Rules.make ~user_type:"u0"
          ~user_op:(Printf.sprintf "g%d" i)
          ~name:(Printf.sprintf "user-g%d" i)
          ~guard:Instances.Semigroup
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
  let e = build (if quick then 12 else 40) in
  (insts, rules, e, nentries)

let s2 () =
  section "S2"
    "indexed dispatch: registry lookups, rule indexing, worklist closure \
     vs the seed linear scans";
  let open Gp_concepts in
  let quick = !quota < 0.5 in
  let n x = Ctype.Named x in
  (* -------- registry: hundreds of types/concepts/ops/models -------- *)
  let ntypes = if quick then 60 else 300 in
  let nconcepts = if quick then 40 else 120 in
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
  let t_reg_ix =
    time_ns "registry lookups (indexed)" (fun () ->
        Sys.opaque_identity
          (probe ~find_model:(Registry.find_model reg)
             ~refines:(Registry.refines reg) ()))
  in
  let t_reg_ref =
    time_ns "registry lookups (linear)" (fun () ->
        Sys.opaque_identity
          (probe ~find_model:find_model_ref ~refines:refines_ref ()))
  in
  (* -------- propagation: a wide refinement fan-out ----------------- *)
  let mids = if quick then 10 else 50 in
  let leaves = if quick then 10 else 50 in
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
  let t_prop =
    time_ns "closure (worklist)" (fun () ->
        Sys.opaque_identity (Propagate.closure preg "Root" [ n "P" ]))
  in
  let t_prop_ref =
    time_ns "closure (quadratic reference)" (fun () ->
        Sys.opaque_identity (Oracles.closure_reference preg "Root" [ n "P" ]))
  in
  (* -------- cold rewrite throughput -------------------------------- *)
  let open Gp_simplicissimus in
  let insts2, rules2, e, nentries = rewrite_world ~quick in
  let r_ix = Engine.rewrite ~rules:rules2 ~insts:insts2 e in
  let r_ref = Oracles.rewrite_reference ~rules:rules2 ~insts:insts2 e in
  assert (Expr.equal r_ix.Engine.output r_ref.Engine.output);
  assert (List.length r_ix.Engine.steps = List.length r_ref.Engine.steps);
  Fmt.pr
    "cold rewrite: %d rules over %d instance entries, %d-op expression, %d \
     steps fired@."
    (List.length rules2) nentries (Expr.op_count e)
    (List.length r_ix.Engine.steps);
  let t_rw =
    time_ns "cold rewrite (indexed)" (fun () ->
        Sys.opaque_identity (Engine.rewrite ~rules:rules2 ~insts:insts2 e))
  in
  let t_rw_ref =
    time_ns "cold rewrite (linear reference)" (fun () ->
        Sys.opaque_identity
          (Oracles.rewrite_reference ~rules:rules2 ~insts:insts2 e))
  in
  (* -------- table + machine-readable record ------------------------ *)
  Fmt.pr "@.%-36s %13s %13s %9s@." "hot path" "linear scan" "indexed"
    "speedup";
  let row label t_ref t_ix names =
    Fmt.pr "%-36s %13s %13s %8.1fx@." label (ns_str t_ref) (ns_str t_ix)
      (t_ref /. t_ix);
    let ref_name, ix_name, sp_name = names in
    record ~experiment:"s2" ref_name t_ref;
    record ~experiment:"s2" ix_name t_ix;
    record ~experiment:"s2" sp_name (t_ref /. t_ix)
  in
  row "registry find_model + refines" t_reg_ref t_reg_ix
    ("registry_linear_ns", "registry_indexed_ns", "registry_speedup");
  row
    (Printf.sprintf "propagation closure (%d obs)" (List.length obs))
    t_prop_ref t_prop
    ("closure_reference_ns", "closure_worklist_ns", "closure_speedup");
  row
    (Printf.sprintf "cold rewrite (%d rules)" (List.length rules2))
    t_rw_ref t_rw
    ("rewrite_reference_ns", "rewrite_indexed_ns", "rewrite_speedup");
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
  let quick = !quota < 0.5 in
  let insts, rules, e, nentries = rewrite_world ~quick in
  assert (not (Tel.is_enabled ()));
  (* all three paths must produce the same result before we time them *)
  let r_core = Engine.rewrite_uninstrumented ~rules ~insts e in
  let r_off = Engine.rewrite ~rules ~insts e in
  let r_on, spans_per_call, counters =
    Tel.with_installed (fun sink ->
        let r = Engine.rewrite ~rules ~insts e in
        ( r,
          Gp_telemetry.Trace.recorded sink.Tel.trace,
          Gp_telemetry.Metrics.total sink.Tel.metrics
            "gp_engine_guard_probes_total" ))
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
  let t_core =
    time_ns "rewrite (uninstrumented core)" (fun () ->
        Sys.opaque_identity (Engine.rewrite_uninstrumented ~rules ~insts e))
  in
  let t_off =
    time_ns "rewrite (instrumented, no sink)" (fun () ->
        Sys.opaque_identity (Engine.rewrite ~rules ~insts e))
  in
  let t_on =
    Tel.with_installed (fun _sink ->
        time_ns "rewrite (instrumented, sink installed)" (fun () ->
            Sys.opaque_identity (Engine.rewrite ~rules ~insts e)))
  in
  let pct t = ((t /. t_core) -. 1.0) *. 100.0 in
  Fmt.pr "@.%-36s %13s %10s@." "variant" "per rewrite" "vs core";
  let row label t names =
    Fmt.pr "%-36s %13s %+9.2f%%@." label (ns_str t) (pct t);
    let t_name, pct_name = names in
    record ~experiment:"s3" t_name t;
    if pct_name <> "" then record ~experiment:"s3" pct_name (pct t)
  in
  row "uninstrumented core" t_core ("uninstrumented_ns", "");
  row "instrumented, telemetry off" t_off
    ("disabled_ns", "disabled_overhead_pct");
  row "instrumented, telemetry on" t_on
    ("enabled_ns", "enabled_overhead_pct");
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
  let quick = !quota < 0.5 in
  let n = if quick then 60 else 200 in
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
  let t_off, t_on =
    Tel.with_installed ~trace_capacity:65536 (fun _sink ->
        let off = Server.create ~config:base_config ~declare_standard () in
        ignore (Server.process off reqs);
        let t_off =
          time_ns "serve stream (recorder off)" (fun () ->
              Sys.opaque_identity (Server.process off reqs))
        in
        let on = Server.create ~config:on_config ~declare_standard () in
        ignore (Server.process on reqs);
        let t_on =
          time_ns "serve stream (recorder on)" (fun () ->
              Sys.opaque_identity (Server.process on reqs))
        in
        (t_off, t_on))
  in
  let overhead_pct = ((t_on /. t_off) -. 1.0) *. 100.0 in
  Fmt.pr "@.%-34s %13s %13s@." "variant" "per stream" "per request";
  Fmt.pr "%-34s %13s %13s@." "telemetry on, recorder off" (ns_str t_off)
    (ns_str (t_off /. float_of_int n));
  Fmt.pr "%-34s %13s %13s@." "telemetry on, recorder on" (ns_str t_on)
    (ns_str (t_on /. float_of_int n));
  Fmt.pr "recorder overhead: %+.2f%%  (acceptance target: < 5%%)@."
    overhead_pct;
  record ~experiment:"s4" "recorder_off_ns" t_off;
  record ~experiment:"s4" "recorder_on_ns" t_on;
  record ~experiment:"s4" "recorder_overhead_pct" overhead_pct;
  (* Deterministic replay: one fresh recorded pass, round-tripped
     through the JSONL dump format (exactly what gp replay reads), then
     re-executed from cold caches. Every fingerprint must match. *)
  let dossiers =
    Tel.with_installed ~trace_capacity:65536 (fun _sink ->
        let server = Server.create ~config:on_config ~declare_standard () in
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
    match Flight.replay ~declare_standard parsed with
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

(* Everything in this section is simulated time inside gp_distsim, so
   the numbers are bit-identical across runs and machines: no quotas,
   no wall clock, and bench-diff can gate them exactly. Two series plus
   the consistency audit:
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
  Fmt.pr "workload: n=%d seed=%d — all numbers simulated, quick = full@." n
    seed;
  let run ?(failures = []) ?(affinity = true) replicas =
    Cluster.run
      ~config:{ Cluster.default_config with replicas; affinity; failures }
      ~declare_standard reqs
  in
  (* shard-count sweep: key affinity concentrates each key's repeats on
     one replica's caches; round-robin scatters them, so its hit ratio
     decays with the replica count *)
  Fmt.pr "@.shard-count sweep (no failures):@.";
  Fmt.pr "%-10s %10s %12s %16s@." "replicas" "msgs/req" "miss% keyed"
    "miss% round-robin";
  List.iter
    (fun replicas ->
      let keyed = run replicas in
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
  let a = Cluster.audit ~declare_standard r in
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
   counts (one per stored-element visit) are quota-independent and
   bit-identical across machines, so bench-diff hard-gates the
   *_step_speedup metrics even against a --quick regeneration; the
   wall-clock confirmations and the dispatch-overhead probe are only
   measured in full runs (recorded as null under --quick, which
   bench-diff skips). *)
let s6 () =
  section "S6" "gp_structla: concept-guided kernel selection vs forced dense";
  let open Gp_structla in
  let quick = !quota < 0.5 in
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
     after one warm-up resolve, an exact count under --quick too *)
  let resolve_words =
    get "diagonal" (fun _ m ->
        let loops = 1000 in
        ignore (Sys.opaque_identity (Select.resolve reg sel Select.Matvec m));
        let w0 = Gc.minor_words () in
        for _ = 1 to loops do
          ignore (Sys.opaque_identity (Select.resolve reg sel Select.Matvec m))
        done;
        (Gc.minor_words () -. w0) /. float_of_int loops)
  in
  Fmt.pr "dispatch resolve alone (diagonal matvec): %.1f minor words@."
    resolve_words;
  record ~experiment:"s6" "resolve_matvec_minor_words" resolve_words;
  (* One full numeric miss as the dispatcher serves it (Select.miss:
     generate, classify, step count, select, kernel, checksum) over
     every structure and op at a fixed order, after one warm-up pass:
     minor and major words per miss, counts that repeat exactly (minor)
     or to within 0.1 % (major) under --quick too *)
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
  miss_pass ();
  (* Gc.counters leaves out the minor words of the live minor heap;
     Gc.minor_words counts them *)
  let minor0 = Gc.minor_words () and _, _, major0 = Gc.counters () in
  miss_pass ();
  let minor1 = Gc.minor_words () and _, _, major1 = Gc.counters () in
  let per_miss w = w /. float_of_int (List.length misses) in
  let miss_words = per_miss (minor1 -. minor0)
  and miss_major = per_miss (major1 -. major0) in
  Fmt.pr "numeric miss at n=%d (generate -> checksum, %d shapes): %.1f minor \
          and %.1f major words per miss@." miss_n (List.length misses)
    miss_words miss_major;
  record ~experiment:"s6" "numeric_miss_minor_words" miss_words;
  record ~experiment:"s6" "numeric_miss_major_words" miss_major;
  (* wall-clock confirmation + dispatch overhead, full runs only *)
  let wall_metrics =
    [ "matvec_dense_ns"; "matvec_diagonal_ns"; "matvec_banded_ns";
      "matvec_csr_ns"; "solve_dense_ns"; "solve_diagonal_ns";
      "resolve_matvec_ns" ]
  in
  if quick then begin
    List.iter (fun k -> record ~experiment:"s6" k nan) wall_metrics;
    Fmt.pr "@.(--quick: wall-clock and dispatch-overhead probes skipped — \
            the step metrics above are exact either way)@."
  end
  else begin
    let run_matvec structure =
      get structure (fun _ m ->
          time_ns
            (Printf.sprintf "matvec via dispatch (%s)" structure)
            (fun () -> Sys.opaque_identity (Select.matvec reg sel m x)))
    in
    let forced_dense =
      get "diagonal" (fun d _ ->
          time_ns "matvec via dispatch (diagonal forced dense)" (fun () ->
              Sys.opaque_identity (Select.matvec reg sel (Mat.Dense d) x)))
    in
    let t_diag = run_matvec "diagonal" in
    let t_band = run_matvec "banded" in
    let t_csr = run_matvec "csr" in
    let t_solve_dense =
      get "dense" (fun _ m ->
          time_ns "solve via dispatch (dense)" (fun () ->
              Sys.opaque_identity (Select.solve reg sel m x)))
    in
    let t_solve_diag =
      get "diagonal" (fun _ m ->
          time_ns "solve via dispatch (diagonal)" (fun () ->
              Sys.opaque_identity (Select.solve reg sel m x)))
    in
    let t_resolve =
      get "diagonal" (fun _ m ->
          time_ns "resolve only (diagonal matvec)" (fun () ->
              Sys.opaque_identity (Select.resolve reg sel Select.Matvec m)))
    in
    Fmt.pr "@.%-40s %12s@." "wall clock (dispatch included)" "ns/op";
    let prow name v = Fmt.pr "%-40s %12s@." name (ns_str v) in
    prow "matvec diagonal, forced dense" forced_dense;
    prow "matvec diagonal, selected" t_diag;
    prow "matvec banded, selected" t_band;
    prow "matvec csr, selected" t_csr;
    prow "solve dense" t_solve_dense;
    prow "solve diagonal, selected" t_solve_diag;
    prow "dispatch resolve alone" t_resolve;
    Fmt.pr "wall speedups: diagonal %.1fx, banded %.1fx, csr %.1fx; \
            dispatch is %.1f%% of the diagonal matvec@."
      (forced_dense /. t_diag) (forced_dense /. t_band)
      (forced_dense /. t_csr)
      (100.0 *. t_resolve /. t_diag);
    record ~experiment:"s6" "matvec_dense_ns" forced_dense;
    record ~experiment:"s6" "matvec_diagonal_ns" t_diag;
    record ~experiment:"s6" "matvec_banded_ns" t_band;
    record ~experiment:"s6" "matvec_csr_ns" t_csr;
    record ~experiment:"s6" "solve_dense_ns" t_solve_dense;
    record ~experiment:"s6" "solve_diagonal_ns" t_solve_diag;
    record ~experiment:"s6" "resolve_matvec_ns" t_resolve
  end

(* ------------------------------------------------------------------ *)
(* S7: zero-allocation wire path — bytes per request                   *)
(* ------------------------------------------------------------------ *)

(* Allocation counts (Gc.allocated_bytes / minor_words deltas) are
   deterministic for a fixed workload, unlike wall clock, so this
   section uses a fixed n regardless of --quick and bench-diff gates
   the committed numbers strictly. The tentpole ratio is measured on
   the isolated wire path — parse + render + digest over the real
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
  Fmt.pr "workload: n=%d seed=%d (fixed regardless of quota) mix=[%a]@." n
    seed Workload.pp_mix mix;
  let config = { Server.default_config with flight_capacity = 2 * n } in
  let server = Server.create ~config ~declare_standard () in
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
     minor counter, so the accurate [Gc.minor_words] primitive is the
     source of truth; every allocation on these paths is far below the
     direct-to-major-heap threshold, so minor words x word-size is the
     full allocation story. *)
  let word_bytes = float_of_int (Sys.word_size / 8) in
  let measure f =
    f ();
    Gc.full_major ();
    let m0 = Gc.minor_words () in
    f ();
    let m1 = Gc.minor_words () in
    let words = (m1 -. m0) /. fn in
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
  let serve () =
    List.iter
      (fun line -> ignore (Sys.opaque_identity (Server.serve_line server line)))
      lines
  in
  let serve_bytes, serve_minor = measure serve in
  (* the text front ends: minor words of one parse, averaged over the
     perfbench payload shapes (lint programs and .gpc defs) *)
  let parse_minor parse srcs =
    let pass () =
      Array.iter (fun src -> ignore (Sys.opaque_identity (parse src))) srcs
    in
    pass ();
    let m0 = Gc.minor_words () in
    pass ();
    (Gc.minor_words () -. m0) /. float_of_int (Array.length srcs)
  in
  let shapes f = Array.init Perf_shapes.period f in
  let lint_parse_minor =
    parse_minor Gp_stllint.Parser.parse_program (shapes Perf_shapes.lint_source)
  in
  let gpc_parse_minor =
    parse_minor Gp_concepts.Lang.parse_string (shapes Perf_shapes.gpc_source)
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
  Fmt.pr "@.%-44s %14s@." "text front end, one parse" "minor words";
  Fmt.pr "%-44s %14.1f@." "STLlint program (perfbench lint shapes)"
    lint_parse_minor;
  Fmt.pr "%-44s %14.1f@." ".gpc defs (perfbench defs shape)" gpc_parse_minor;
  (* replay the recorded pass from cold caches: the streaming
     fingerprints must match the dossiers bit-for-bit *)
  let outcome =
    match Flight.replay ~declare_standard dossiers with
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
  record ~experiment:"s7" "lint_parse_minor_words" lint_parse_minor;
  record ~experiment:"s7" "gpc_parse_minor_words" gpc_parse_minor;
  record ~experiment:"s7" "replay_diverged_pct"
    (100.0
    *. float_of_int (List.length outcome.Flight.rep_diverged)
    /. fn)

(* ------------------------------------------------------------------ *)
(* S8: empirical complexity verification (ISSUE 8 / ROADMAP item 1)    *)
(* ------------------------------------------------------------------ *)

(* Sweep the gp_complexity_obs catalog, fit growth models to the exact
   step/message counts, and record the fitted degree and residual per
   operation. Every gated number is an exact count over a fixed ladder
   — quota-independent and identical under --quick — so BENCH_s8.json
   is hard-gated by bench-diff like s5/s6/s7 (_fitted_degree keys must
   match exactly; _residual keys may only shrink). The per-catalog wall
   probe is the one non-deterministic extra: null under --quick,
   advisory otherwise. *)
let s8 () =
  section "S8"
    "empirical asymptotics: fitted growth vs declared Complexity bounds";
  let open Gp_complexity_obs in
  let quick = !quota < 0.5 in
  let entries =
    List.map
      (fun op -> Report.analyze (Sweep.run ~wall:(not quick) op))
      (Catalog.ops ())
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
      record ~experiment:"s8"
        (name ^ "_wall_ns")
        e.Report.e_series.Sweep.sr_wall_ns)
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
     - fleet percentiles come off the geometry-checked histogram merge,
       and the attribution decomposes tail latency into
       queueing/retry/election-stall/service.
   Wall-clock probes (trace-off vs trace-on run time) are recorded only
   in full runs; --quick writes null so bench-diff skips them. *)
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
      ~config:{ Cluster.default_config with replicas = 3; failures; trace }
      ~declare_standard reqs
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
  Fmt.pr "@.fleet metrics (merged per-node registries):@.%a"
    Fleet.pp_report r;
  (match Fleet.merged r with
  | None -> assert false
  | Some m -> (
    match Fleet.request_percentiles m with
    | None -> assert false
    | Some pc ->
      assert (pc.Fleet.pc_count = n);
      record ~experiment:"s9" "latency_p50_sim" pc.Fleet.pc_p50;
      record ~experiment:"s9" "latency_p90_sim" pc.Fleet.pc_p90;
      record ~experiment:"s9" "latency_p99_sim" pc.Fleet.pc_p99));
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
  (* wall-clock overhead probes: meaningless under --quick quotas, so
     null there (bench-diff skips null) *)
  if !quota < 0.45 then begin
    Fmt.pr "@.overhead probe skipped under --quick (recorded as null)@.";
    record ~experiment:"s9" "run_untraced_ns" nan;
    record ~experiment:"s9" "run_traced_ns" nan;
    record ~experiment:"s9" "trace_overhead_ratio" nan
  end
  else begin
    let t_off =
      time_ns "cluster run, tracing off" (fun () ->
          Sys.opaque_identity (run ~trace:false ()))
    in
    let t_on =
      time_ns "cluster run, tracing on" (fun () ->
          Sys.opaque_identity (run ~trace:true ()))
    in
    Fmt.pr "@.wall clock: untraced %s, traced %s per run (%.2fx)@."
      (ns_str t_off) (ns_str t_on) (t_on /. t_off);
    record ~experiment:"s9" "run_untraced_ns" t_off;
    record ~experiment:"s9" "run_traced_ns" t_on;
    record ~experiment:"s9" "trace_overhead_ratio" (t_on /. t_off)
  end

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
  (* Every scenario below runs at FULL scale regardless of --quick:
     all gated numbers are simulated time and exact counts, so the
     committed baseline must reproduce under quick quotas too. Only
     the wall probes at the end are quota-dependent (null under
     --quick; bench-diff skips null). *)

  (* -- hot-key flood: the mitigation's measured win ---------------- *)
  let n = Scenario.flood_n ~quick:false in
  let reqs = Scenario.flood_reqs ~seed n in
  let arm promote =
    Cluster.run
      ~config:(Scenario.flood_config ~quick:false ~seed ~promote n)
      ~declare_standard reqs
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
  let eo =
    Scenario.run ~seed ~audit:true ~declare_standard (scenario "elastic")
  in
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
  let t_o =
    Scenario.run ~seed ~audit:true ~declare_standard (scenario "tenants")
  in
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
  let t0 = Unix.gettimeofday () in
  let mo =
    Scenario.run ~seed ~audit:true ~declare_standard (scenario "million")
  in
  let wall = Unix.gettimeofday () -. t0 in
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
  (* wall-clock probes: meaningless under --quick quotas, null there
     (bench-diff skips null) *)
  if !quota < 0.45 then begin
    Fmt.pr "@.wall probe skipped under --quick (recorded as null)@.";
    record ~experiment:"s10" "million_wall_ns" nan;
    record ~experiment:"s10" "million_req_per_wall_sec" nan
  end
  else begin
    Fmt.pr "@.wall clock: %.1f s for the audited million (%.0f req/s \
            including the single-node replay)@."
      wall
      (float_of_int mo.Scenario.o_requests /. wall);
    record ~experiment:"s10" "million_wall_ns" (wall *. 1e9);
    record ~experiment:"s10" "million_req_per_wall_sec"
      (float_of_int mo.Scenario.o_requests /. wall)
  end

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let experiments =
  [ ("f1", f1_f2); ("f3", f3); ("f4", f4); ("f5", f5); ("f6", f6);
    ("c1", c1); ("c2", c2); ("c3", c3); ("c5", c5); ("c6", c6); ("c8", c8);
    ("a1", a1); ("s1", s1); ("s2", s2); ("s3", s3); ("s4", s4);
    ("s5", s5); ("s6", s6); ("s7", s7); ("s8", s8); ("s9", s9);
    ("s10", s10) ]

let () =
  let rec parse = function
    | [] -> []
    | "--quick" :: rest ->
      quota := 0.1;
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
  List.iter (fun (_, f) -> f ()) todo;
  Fmt.pr "@.%s@.all experiments complete.@." line;
  match !json_path with
  | Some path ->
    write_json path;
    Fmt.pr "results written to %s@." path
  | None -> ()
