(* gp — the command-line face of the library.

     gp check <concept> <type> [<type>...]   concept checking with diagnostics
     gp concepts                             list everything the registry knows
     gp lint [case]                          run STLlint on the corpus
     gp optimize                             Simplicissimus demo + certification
     gp prove [--theory swo|group|monoid]    run the proof checker
     gp elect --algo lcr|hs --nodes N        leader election on a ring
     gp taxonomy --problem P --topology T    pick the right algorithm
     gp structla [--n N] [--seed S]          structure-aware kernel selection
     gp serve [--file F]                     serve JSONL requests (gp_service)
     gp workload --n N --seed S              run a synthetic serving workload
     gp replay <flight.jsonl>                re-execute a flight dump, verify
     gp cluster run|audit|trace              simulated replicated cluster (gp_cluster)
     gp scenario list|run                    elastic cluster scenarios (gp_scenario)
     gp complexity [--op O] [--json]         empirical asymptotics vs declared bounds
     gp bench-diff <old.json> <new.json>     perf-regression guard over --json *)

open Cmdliner

(* The "standard world": every registry declaration the libraries ship. *)
module Standard = Gp_standard.Standard

(* ------------------------------------------------------------------ *)
(* gp check                                                            *)
(* ------------------------------------------------------------------ *)

let load_defs reg = function
  | None -> true
  | Some path -> (
    match In_channel.with_open_text path In_channel.input_all with
    | src -> (
      match Gp_concepts.Lang.load_string reg src with
      | () -> true
      | exception Gp_concepts.Lang.Parse_error { line; col; message } ->
        Fmt.epr "%s:%d:%d: %s@." path line col message;
        false
      | exception Gp_concepts.Registry.Duplicate what ->
        Fmt.epr "%s: duplicate declaration of %s@." path what;
        false)
    | exception Sys_error e ->
      Fmt.epr "%s@." e;
      false)

let defs_arg =
  Arg.(value
       & opt (some file) None
       & info [ "defs" ]
           ~doc:"Load additional concept/type/model declarations from a \
                 .gpc file (the gp surface syntax).")

let check_cmd =
  let concept =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"CONCEPT")
  in
  let types =
    Arg.(non_empty & pos_right 0 string [] & info [] ~docv:"TYPE")
  in
  let nominal =
    Arg.(value & flag & info [ "nominal" ] ~doc:"Require a declared model.")
  in
  let run concept types nominal defs =
    let open Gp_concepts in
    let reg = Standard.registry () in
    if not (load_defs reg defs) then 2
    else begin
      let mode = if nominal then Check.Nominal else Check.Structural in
      let args = List.map (fun t -> Ctype.Named t) types in
      let report = Check.check ~mode reg concept args in
      Fmt.pr "%a@." Check.pp_report report;
      if Check.ok report then 0 else 1
    end
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Check whether types model a concept")
    Term.(const run $ concept $ types $ nominal $ defs_arg)

let parse_cmd =
  let path =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE")
  in
  let run path =
    let src = In_channel.with_open_text path In_channel.input_all in
    match Gp_concepts.Lang.parse_string src with
    | items ->
      List.iter
        (function
          | Gp_concepts.Lang.Iconcept c ->
            Fmt.pr "%a@.@." Gp_concepts.Lang.pp_concept c
          | Gp_concepts.Lang.Itype { name; assoc } ->
            Fmt.pr "type %s with %d associated type(s)@.@." name
              (List.length assoc)
          | Gp_concepts.Lang.Iop { name; _ } -> Fmt.pr "op %s@.@." name
          | Gp_concepts.Lang.Imodel { concept; args; _ } ->
            Fmt.pr "model %s<%a>@.@." concept
              Fmt.(list ~sep:comma Gp_concepts.Lang.pp_ty)
              args)
        items;
      0
    | exception Gp_concepts.Lang.Parse_error { line; col; message } ->
      Fmt.epr "%s:%d:%d: %s@." path line col message;
      2
  in
  Cmd.v
    (Cmd.info "parse" ~doc:"Parse and pretty-print a .gpc definitions file")
    Term.(const run $ path)

(* ------------------------------------------------------------------ *)
(* gp concepts                                                         *)
(* ------------------------------------------------------------------ *)

let concepts_cmd =
  let run () =
    let open Gp_concepts in
    let reg = Standard.registry () in
    Fmt.pr "concepts:@.";
    List.iter
      (fun (c : Concept.t) ->
        Fmt.pr "  %-24s (%d params%s) %s@." c.Concept.name
          (List.length c.Concept.params)
          (if Concept.is_semantic c then ", semantic" else "")
          c.Concept.doc)
      (Registry.concepts reg);
    Fmt.pr "@.declared models: %d@." (List.length (Registry.models reg));
    0
  in
  Cmd.v
    (Cmd.info "concepts" ~doc:"List known concepts and models")
    Term.(const run $ const ())

(* ------------------------------------------------------------------ *)
(* gp lint                                                             *)
(* ------------------------------------------------------------------ *)

let lint_cmd =
  let case =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"CASE")
  in
  let file =
    Arg.(value
         & opt (some file) None
         & info [ "file" ]
             ~doc:"Check a program file in the STLlint surface syntax \
                   instead of a corpus case.")
  in
  let run_file path =
    let open Gp_stllint in
    let src = In_channel.with_open_text path In_channel.input_all in
    match Parser.check_source src with
    | ds ->
      Fmt.pr "%a@." Interp.pp_report ds;
      if Interp.errors ds <> [] then 1 else 0
    | exception Parser.Parse_error { line; message; _ } ->
      Fmt.epr "%s:%d: %s@." path line message;
      2
  in
  let run_corpus case =
    let open Gp_stllint in
    let cases =
      match case with
      | None -> Corpus.all
      | Some name -> (
        match
          List.filter (fun c -> c.Corpus.case_name = name) Corpus.all
        with
        | [] ->
          Fmt.epr "unknown case %s; available:@." name;
          List.iter
            (fun c -> Fmt.epr "  %s@." c.Corpus.case_name)
            Corpus.all;
          exit 2
        | cs -> cs)
    in
    let bad = ref 0 in
    List.iter
      (fun (c : Corpus.case) ->
        Fmt.pr "--- %s: %s@." c.Corpus.case_name c.Corpus.description;
        let ds = Interp.check c.Corpus.program in
        Fmt.pr "%a@.@." Interp.pp_report ds;
        if Interp.errors ds <> [] then incr bad)
      cases;
    if !bad > 0 then 1 else 0
  in
  let run case file =
    match file with Some path -> run_file path | None -> run_corpus case
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Run the STLlint checker on the corpus or a program file")
    Term.(const run $ case $ file)

(* ------------------------------------------------------------------ *)
(* gp optimize                                                         *)
(* ------------------------------------------------------------------ *)

(* The demo expressions gp optimize rewrites without --expr, and gp trace
   optimize traces. *)
let optimize_demos =
  let open Gp_simplicissimus.Expr in
  [ binop "*" (binop "+" (ivar "x") (int 0)) (int 1);
    binop "+" (ivar "x") (unop "neg" (ivar "x"));
    binop "*" (ivar "x") (int 0);
    binop "." (mvar "A") (Ident ("matrix", "."));
    Op ("/", "bigfloat", [ float 1.0; Var ("f", "bigfloat") ]) ]

let optimize_cmd =
  let certified_only =
    Arg.(value & flag
         & info [ "certified-only" ]
             ~doc:"Only apply rules whose backing theorem checked.")
  in
  let expr_arg =
    Arg.(value
         & opt (some string) None
         & info [ "expr" ]
             ~doc:"Rewrite this expression (e.g. \"x*1 + (y:float)*0.0\"; \
                   variables default to int, annotate with :type).")
  in
  let run certified_only expr_src =
    let open Gp_simplicissimus in
    let certs = Certify.certify_builtin () in
    List.iter (fun c -> Fmt.pr "%a@." Certify.pp_certification c) certs;
    let rules =
      if certified_only then Certify.certified certs Rules.standard
      else Rules.standard
    in
    let insts = Instances.standard (Standard.world ()) in
    let demos =
      match expr_src with
      | Some src -> (
        match Sparser.parse src with
        | e -> [ e ]
        | exception Sparser.Parse_error { line; col; message } ->
          Fmt.epr "expr:%d:%d: %s@." line col message;
          exit 2)
      | None -> optimize_demos
    in
    Fmt.pr "@.";
    List.iter
      (fun e ->
        let r = Engine.rewrite ~rules ~insts e in
        Fmt.pr "%a@." Engine.pp_result r;
        List.iter (fun st -> Fmt.pr "  %a@." Engine.pp_step st) r.Engine.steps)
      demos;
    0
  in
  Cmd.v
    (Cmd.info "optimize"
       ~doc:"Concept-based rewriting (demo expressions or --expr)")
    Term.(const run $ certified_only $ expr_arg)

(* ------------------------------------------------------------------ *)
(* gp prove                                                            *)
(* ------------------------------------------------------------------ *)

let prove_cmd =
  let catalogue = Gp_athena.Theorems.catalogue in
  let theory =
    Arg.(value
         & opt (enum (List.map (fun (name, _) -> (name, name)) catalogue)) "swo"
         & info [ "theory" ]
             ~doc:(Printf.sprintf "Which theory to prove: %s."
                     (String.concat ", " (List.map fst catalogue))))
  in
  let run theory =
    let open Gp_athena in
    let failures = ref 0 in
    List.iter
      (fun (_, axioms, theorems) ->
        List.iter
          (fun (thm : Theorems.theorem) ->
            let verdict = Theorems.verify ~axioms thm in
            (match verdict with Deduction.Proved -> () | _ -> incr failures);
            Fmt.pr "%-44s %a@." thm.Theorems.thm_name Deduction.pp_verdict
              verdict)
          theorems)
      (Theorems.build_all (List.assoc theory catalogue));
    if !failures > 0 then 1 else 0
  in
  Cmd.v
    (Cmd.info "prove" ~doc:"Check generic proofs against theory axioms")
    Term.(const run $ theory)

(* ------------------------------------------------------------------ *)
(* gp elect                                                            *)
(* ------------------------------------------------------------------ *)

let elect_cmd =
  let algo =
    Arg.(value
         & opt (enum [ ("lcr", `Lcr); ("hs", `Hs) ]) `Lcr
         & info [ "algo" ] ~doc:"lcr or hs.")
  in
  let nodes =
    Arg.(value & opt int 16 & info [ "nodes"; "n" ] ~doc:"Ring size.")
  in
  let asynchronous =
    Arg.(value & flag & info [ "async" ] ~doc:"Asynchronous message delays.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"RNG seed.") in
  let run algo nodes asynchronous seed =
    let open Gp_distsim in
    let uids = Array.init nodes (fun i -> nodes - i) in
    let config =
      { Engine.default_config with
        Engine.timing =
          (if asynchronous then Engine.Asynchronous { max_delay = 3.0 }
           else Engine.Synchronous);
        seed }
    in
    let r =
      match algo with
      | `Lcr -> Algorithms.Lcr.run ~config ~uids (Topology.ring_unidirectional nodes)
      | `Hs -> Algorithms.Hs.run ~config ~uids (Topology.ring nodes)
    in
    Fmt.pr "leader: %s@."
      (Option.value ~default:"(no agreement)" (Algorithms.agreed r));
    Fmt.pr "%a@." Engine.pp_metrics r.Engine.metrics;
    0
  in
  Cmd.v
    (Cmd.info "elect" ~doc:"Leader election on a ring in the simulator")
    Term.(const run $ algo $ nodes $ asynchronous $ seed)

(* ------------------------------------------------------------------ *)
(* gp taxonomy                                                         *)
(* ------------------------------------------------------------------ *)

let taxonomy_cmd =
  let problem =
    Arg.(value & opt string "leader-election"
         & info [ "problem" ] ~doc:"Problem dimension value.")
  in
  let topology =
    Arg.(value & opt string "bidirectional-ring"
         & info [ "topology" ] ~doc:"Topology dimension value.")
  in
  let measure =
    Arg.(value & opt string "messages"
         & info [ "measure" ] ~doc:"Cost measure to minimise.")
  in
  let run problem topology measure =
    let open Gp_distsim in
    let t = Taxonomy7.build () in
    let best = Taxonomy7.pick_for t ~problem ~topology ~measure in
    if best = [] then begin
      Fmt.pr "no algorithm registered for this situation (a taxonomy gap).@.";
      1
    end
    else begin
      List.iter
        (fun e -> Fmt.pr "%a@." Gp_concepts.Taxonomy.pp_entry e)
        best;
      0
    end
  in
  Cmd.v
    (Cmd.info "taxonomy"
       ~doc:"Query the seven-dimension distributed-algorithms taxonomy")
    Term.(const run $ problem $ topology $ measure)

(* ------------------------------------------------------------------ *)
(* gp serve / gp workload                                               *)
(* ------------------------------------------------------------------ *)

let server_config ~no_cache ~cache_capacity ~max_steps ~timeout =
  match
    Gp_service.Server.validate_config
      { Gp_service.Server.default_config with
        Gp_service.Server.caching = not no_cache;
        cache_capacity;
        max_steps;
        timeout }
  with
  | Ok config -> config
  | Error m ->
    Fmt.epr "bad config: %s@." m;
    exit 2

let no_cache_arg =
  Arg.(value & flag
       & info [ "no-cache" ] ~doc:"Disable the memo caches entirely.")

let cache_capacity_arg =
  Arg.(value & opt int 256
       & info [ "cache-capacity" ] ~doc:"Entries per LRU cache.")

let max_steps_arg =
  Arg.(value & opt int 100_000
       & info [ "max-steps" ] ~doc:"Per-request step budget.")

let timeout_arg =
  Arg.(value & opt (some float) None
       & info [ "timeout" ] ~doc:"Per-request deadline in seconds.")

let metrics_arg =
  Arg.(value & flag
       & info [ "metrics" ]
           ~doc:"Print the metrics report to stderr when the input ends.")

let write_file path contents =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc contents)

let serve_cmd =
  let file =
    Arg.(value
         & opt (some file) None
         & info [ "file" ]
             ~doc:"Read request lines from this file instead of stdin.")
  in
  let stats_json =
    Arg.(value
         & opt (some string) None
         & info [ "stats-json" ]
             ~doc:"When the input ends, write the machine-readable metrics \
                   report (counters, interpolated latency quantiles, cache \
                   stats) to this file.")
  in
  let trace_file =
    Arg.(value
         & opt (some string) None
         & info [ "trace" ]
             ~doc:"Trace every request (a service.request root span over \
                   the engine spans it triggers) and write Chrome \
                   trace-event JSON to this file when the input ends, then \
                   print the flight recorder's slowest requests with their \
                   span trees to stderr.")
  in
  let flight_file =
    Arg.(value
         & opt (some string) None
         & info [ "flight" ]
             ~doc:"When the input ends, dump the flight recorder — one \
                   JSONL dossier per served request, with span trees on \
                   error/slowest-k dossiers — to this file ($(b,gp replay) \
                   input). Installs a telemetry sink \
                   like $(b,--trace) so dossiers carry span trees.")
  in
  let run file no_cache cache_capacity max_steps timeout metrics
      stats_json trace_file flight_file =
    let open Gp_service in
    let config = server_config ~no_cache ~cache_capacity ~max_steps ~timeout in
    let sink =
      if trace_file <> None || flight_file <> None then
        Some (Gp_telemetry.Tel.install ~trace_capacity:65536 ())
      else None
    in
    let server = Server.create ~config () in
    let served =
      match file with
      | None -> Server.serve_channel server stdin stdout
      | Some path ->
        In_channel.with_open_text path (fun ic ->
            Server.serve_channel server ic stdout)
    in
    if metrics then Fmt.epr "%s@." (Server.report server);
    (match stats_json with
    | None -> ()
    | Some path -> write_file path (Server.report_json server));
    (match trace_file, sink with
    | Some path, Some sink ->
      write_file path (Gp_telemetry.Trace.to_chrome_json sink.trace);
      Option.iter
        (Fmt.epr "%a@." Gp_telemetry.Recorder.pp_slowest)
        (Server.flight server)
    | _ -> ());
    (match flight_file, Server.flight server with
    | Some path, Some recorder ->
      write_file path (Gp_telemetry.Recorder.to_jsonl recorder);
      Fmt.epr "%a@." Gp_telemetry.Recorder.pp_summary recorder
    | Some path, None ->
      Fmt.epr "--flight %s: the flight recorder is disabled \
               (flight_capacity = 0)@." path
    | None, _ -> ());
    if served > 0 then 0 else 2
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Serve JSONL-ish toolchain requests from a file or stdin")
    Term.(const run $ file $ no_cache_arg $ cache_capacity_arg
          $ max_steps_arg $ timeout_arg $ metrics_arg $ stats_json
          $ trace_file $ flight_file)

let workload_cmd =
  let n_arg =
    Arg.(value & opt int 400 & info [ "requests"; "n" ] ~doc:"Number of requests.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"RNG seed.") in
  let mix_arg =
    Arg.(value
         & opt (some string) None
         & info [ "mix" ]
             ~doc:"Kind mix as weights over any request kinds, the \
                   numeric ones included, e.g. \
                   \"closure=3,lint=2,prove=1,matvec=2\". Default: \
                   the base mix, no numeric kinds.")
  in
  let zipf =
    Arg.(value & opt float 1.1
         & info [ "zipf" ] ~doc:"Zipf exponent for key reuse.")
  in
  let keyspace =
    Arg.(value & opt int 40
         & info [ "keyspace" ] ~doc:"Distinct keys per request kind.")
  in
  let quick =
    Arg.(value & flag
         & info [ "quick" ]
             ~doc:"Small fixed workload (n=60, seed=7): the smoke-test \
                   configuration run under dune runtest.")
  in
  let print_responses =
    Arg.(value & flag
         & info [ "print" ] ~doc:"Print every response line.")
  in
  let errors_arg =
    Arg.(value & opt float 0.0
         & info [ "errors" ]
             ~doc:"Fraction (in [0,1]) of deterministically failing \
                   requests to inject: malformed sources, unknown names, \
                   and a rewrite that goes over budget when \
                   $(b,--max-steps) is tightened to 2500 or below.")
  in
  let emit =
    Arg.(value & flag
         & info [ "emit" ]
             ~doc:"Print the generated request lines (the $(b,gp serve) \
                   wire format) instead of serving them — feeds a \
                   workload file to $(b,gp serve --file).")
  in
  let run n seed mix_spec zipf keyspace quick print_responses errors emit
      no_cache cache_capacity max_steps timeout =
    let open Gp_service in
    let mix =
      match mix_spec with
      | None -> Workload.default_mix
      | Some spec -> (
        match Workload.parse_mix spec with
        | Ok m -> m
        | Error e ->
          Fmt.epr "bad --mix: %s@." e;
          exit 2)
    in
    if errors < 0.0 || errors > 1.0 then begin
      Fmt.epr "bad --errors: %g outside [0,1]@." errors;
      exit 2
    end;
    let n, seed = if quick then (60, 7) else (n, seed) in
    let reqs = Workload.generate ~mix ~zipf ~keyspace ~errors ~seed ~n () in
    if emit then begin
      List.iter (fun req -> print_endline (Wire.request_to_line req)) reqs;
      exit 0
    end;
    let config = server_config ~no_cache ~cache_capacity ~max_steps ~timeout in
    let server = Server.create ~config () in
    let t0 = Unix.gettimeofday () in
    let responses = Server.process server reqs in
    let dt = Unix.gettimeofday () -. t0 in
    if print_responses then
      List.iter
        (fun r -> Fmt.pr "%s@." (Wire.response_to_line r))
        responses;
    let ok = List.length (List.filter Request.ok responses) in
    let cached =
      List.length (List.filter (fun r -> r.Request.rsp_cached) responses)
    in
    Fmt.pr "workload: n=%d seed=%d zipf=%.2f keyspace=%d errors=%.2f \
            mix=[%a]@."
      n seed zipf keyspace errors Workload.pp_mix mix;
    Fmt.pr "fingerprint: %s@." (Workload.fingerprint reqs);
    Fmt.pr "served %d requests in %.3fs (%.0f req/s): %d ok, %d errors, %d \
            cache-served@.@."
      (List.length responses) dt
      (float_of_int (List.length responses) /. Float.max dt 1e-9)
      ok
      (List.length responses - ok)
      cached;
    Fmt.pr "%s@." (Server.report server);
    (* the workload mix includes requests that *should* fail (bad checks
       are part of the service's job); the exit code only reflects the
       serving machinery itself *)
    if List.length responses = n then 0 else 1
  in
  Cmd.v
    (Cmd.info "workload"
       ~doc:"Generate and serve a seeded synthetic workload, then report")
    Term.(const run $ n_arg $ seed $ mix_arg $ zipf $ keyspace $ quick
          $ print_responses $ errors_arg $ emit $ no_cache_arg
          $ cache_capacity_arg $ max_steps_arg $ timeout_arg)

(* ------------------------------------------------------------------ *)
(* gp trace                                                            *)
(* ------------------------------------------------------------------ *)

(* Run a representative slice of each subsystem under an installed
   telemetry sink and export the Chrome trace. The slices reuse the same
   worlds the other subcommands exercise: the standard registry, the
   STLlint corpus, the optimizer demo set, a 16-node election. *)
let trace_cmd =
  let pipeline =
    Arg.(value
         & pos 0
             (enum
                [ ("all", `All); ("check", `Check); ("closure", `Closure);
                  ("lint", `Lint); ("optimize", `Optimize);
                  ("elect", `Elect); ("serve", `Serve) ])
             `All
         & info [] ~docv:"PIPELINE"
             ~doc:"Which pipeline to trace: all, check, closure, lint, \
                   optimize, elect or serve (a seeded request mix through \
                   one server, so the service stages get spans too).")
  in
  let out =
    Arg.(value
         & opt (some string) None
         & info [ "out"; "o" ]
             ~doc:"Write Chrome trace-event JSON (chrome://tracing, \
                   Perfetto) to this file instead of stdout.")
  in
  let tree =
    Arg.(value & flag
         & info [ "tree" ] ~doc:"Print the span tree to stderr.")
  in
  let folded =
    Arg.(value & flag
         & info [ "folded" ]
             ~doc:"Emit collapsed-stack (\"folded\") lines — \
                   root;child;leaf self-weight — instead of Chrome \
                   trace-event JSON; pipe into a flamegraph renderer.")
  in
  let gc =
    Arg.(value & flag
         & info [ "gc" ]
             ~doc:"Enable GC/allocation span profiling: every span \
                   carries allocated-bytes and minor/major collection \
                   deltas (Chrome args, tree annotations, and the \
                   $(b,--folded) alloc weight).")
  in
  let metrics =
    Arg.(value & flag
         & info [ "metrics" ]
             ~doc:"Print the run's metric families to stderr \
                   (Prometheus text), derived from the recorded spans' \
                   attributes. Exits 1 if the trace ring dropped spans.")
  in
  let run pipeline out tree folded gc metrics =
    let rebuilds0 = Gp_concepts.Registry.index_rebuilds () in
    let sink =
      Gp_telemetry.Tel.install ~trace_capacity:65536 ~profile:gc ()
    in
    let reg = Standard.registry () in
    let do_check () =
      let open Gp_concepts in
      List.iter
        (fun (c : Concept.t) ->
          let args = List.map (fun _ -> Ctype.Named "int") c.Concept.params in
          ignore (Check.check reg c.Concept.name args))
        (Registry.concepts reg)
    in
    let do_closure () =
      let open Gp_concepts in
      List.iter
        (fun (c : Concept.t) ->
          ignore
            (Propagate.closure reg c.Concept.name
               (List.map (fun p -> Ctype.Var p) c.Concept.params)))
        (Registry.concepts reg)
    in
    let do_lint () =
      List.iter
        (fun (c : Gp_stllint.Corpus.case) ->
          ignore (Gp_stllint.Interp.check c.Gp_stllint.Corpus.program))
        Gp_stllint.Corpus.all
    in
    let do_optimize () =
      let open Gp_simplicissimus in
      let insts = Instances.standard reg in
      List.iter
        (fun e -> ignore (Engine.rewrite ~rules:Rules.standard ~insts e))
        optimize_demos
    in
    let do_elect () =
      let open Gp_distsim in
      let uids = Array.init 16 (fun i -> 16 - i) in
      ignore (Algorithms.Lcr.run ~uids (Topology.ring_unidirectional 16));
      ignore (Algorithms.Hs.run ~uids (Topology.ring 16))
    in
    let do_serve () =
      let open Gp_service in
      let server = Server.create () in
      ignore (Server.process server (Workload.generate ~seed:42 ~n:300 ()))
    in
    (match pipeline with
    | `All ->
      do_check ();
      do_closure ();
      do_lint ();
      do_optimize ();
      do_elect ();
      do_serve ()
    | `Serve -> do_serve ()
    | `Check -> do_check ()
    | `Closure -> do_closure ()
    | `Lint -> do_lint ()
    | `Optimize -> do_optimize ()
    | `Elect -> do_elect ());
    let output =
      if folded then
        (* weight by allocated bytes when profiling, else by duration *)
        Gp_telemetry.Trace.to_folded
          ~weight:(if gc then `Alloc else `Dur)
          sink.Gp_telemetry.Tel.trace
      else Gp_telemetry.Trace.to_chrome_json sink.Gp_telemetry.Tel.trace
    in
    (match out with
    | None -> print_string output
    | Some path ->
      write_file path output;
      Fmt.epr "wrote %d spans to %s@."
        (Gp_telemetry.Trace.recorded sink.Gp_telemetry.Tel.trace)
        path);
    if tree then
      Fmt.epr "%a@." Gp_telemetry.Trace.pp_tree
        (Gp_telemetry.Trace.spans sink.Gp_telemetry.Tel.trace);
    if not metrics then 0
    else
      match
        Gp_tracing.Span_metrics.of_trace
          ~index_rebuilds:(Gp_concepts.Registry.index_rebuilds () - rebuilds0)
          sink.Gp_telemetry.Tel.trace
      with
      | Ok m ->
        Fmt.epr "%s@." (Gp_telemetry.Metrics.to_prometheus m);
        0
      | Error e ->
        Fmt.epr "gp trace --metrics: %s@." e;
        1
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Trace a toolchain pipeline and export Chrome trace-event JSON")
    Term.(const run $ pipeline $ out $ tree $ folded $ gc $ metrics)

(* ------------------------------------------------------------------ *)
(* gp replay                                                           *)
(* ------------------------------------------------------------------ *)

let replay_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FLIGHT.jsonl")
  in
  let run path =
    let open Gp_service in
    match Gp_telemetry.Recorder.load path with
    | Error m ->
      Fmt.epr "%s@." m;
      2
    | Ok ds -> (
      match Flight.replay ds with
      | Error m ->
        Fmt.epr "%s@." m;
        2
      | Ok o ->
        Fmt.pr "%a@." Flight.pp_outcome o;
        if Flight.all_matched o then 0 else 1)
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:"Re-execute a flight-recorder dump (gp serve --flight) against \
             a freshly built server and verify every response fingerprint; \
             prints recorded-vs-replayed span trees on divergence")
    Term.(const run $ file)

(* ------------------------------------------------------------------ *)
(* gp cluster                                                          *)
(* ------------------------------------------------------------------ *)

(* Failure-injection grammar, comma-separated clauses:
     drop=0.2                    each message dropped with prob 0.2
     crash=3@40                  replica 3 crash-stops at t=40
     crash=leader@40             the initial election winner crashes
     partition=0+1|2+3@10-30     islands {0,1} and {2,3} while 10<=t<30
   (node 0 is the router; replicas are 1..N) *)
let parse_failure_spec spec =
  let open Gp_cluster in
  let clause c =
    let c = String.trim c in
    match String.index_opt c '=' with
    | None -> failwith (c ^ ": expected kind=value")
    | Some i ->
      let key = String.sub c 0 i in
      let v = String.sub c (i + 1) (String.length c - i - 1) in
      (match key with
      | "drop" -> Cluster.Drop (float_of_string v)
      | "crash" -> (
        match String.split_on_char '@' v with
        | [ who; at ] ->
          let at = float_of_string at in
          if who = "leader" then Cluster.Crash_leader { at }
          else Cluster.Crash_replica { replica = int_of_string who; at }
        | _ -> failwith (c ^ ": expected crash=WHO@TIME"))
      | "partition" -> (
        match String.split_on_char '@' v with
        | [ groups; window ] ->
          let groups =
            String.split_on_char '|' groups
            |> List.map (fun g ->
                   String.split_on_char '+' g |> List.map int_of_string)
          in
          (match String.split_on_char '-' window with
          | [ a; b ] ->
            Cluster.Partition
              { groups; from_ = float_of_string a; until = float_of_string b }
          | _ -> failwith (c ^ ": expected partition=GROUPS@FROM-UNTIL"))
        | _ -> failwith (c ^ ": expected partition=GROUPS@FROM-UNTIL"))
      | _ -> failwith (key ^ ": unknown failure kind"))
  in
  match
    String.split_on_char ',' spec
    |> List.filter (fun c -> String.trim c <> "")
    |> List.map clause
  with
  | failures -> Ok failures
  | exception Failure m -> Error m

let cluster_run_cmd =
  let replicas =
    Arg.(value & opt int 3
         & info [ "replicas" ] ~doc:"Number of replica servers.")
  in
  let vnodes =
    Arg.(value & opt int 64
         & info [ "vnodes" ] ~doc:"Ring points per replica.")
  in
  let n_arg =
    Arg.(value & opt int 200
         & info [ "requests"; "n" ] ~doc:"Workload size (generated).")
  in
  let seed =
    Arg.(value & opt int 42
         & info [ "seed" ] ~doc:"Workload generator seed.")
  in
  let sim_seed =
    Arg.(value & opt int 42
         & info [ "sim-seed" ]
             ~doc:"Simulator seed (timing draws and message drops).")
  in
  let file =
    Arg.(value & opt (some file) None
         & info [ "file" ]
             ~doc:"Read request lines from this file ($(b,gp workload \
                   --emit) output) instead of generating a workload.")
  in
  let failures =
    Arg.(value & opt (some string) None
         & info [ "failures" ]
             ~doc:"Failure injection spec: comma-separated clauses \
                   $(b,drop=P), $(b,crash=REPLICA@TIME), \
                   $(b,crash=leader@TIME), \
                   $(b,partition=G1|G2@FROM-UNTIL) with nodes joined by \
                   $(b,+) (node 0 is the router).")
  in
  let round_robin =
    Arg.(value & flag
         & info [ "round-robin" ]
             ~doc:"Route reads round-robin instead of sharding by content \
                   key — the cache-affinity contrast arm.")
  in
  let async =
    Arg.(value & opt (some float) None
         & info [ "async" ]
             ~doc:"Asynchronous timing with this max message delay \
                   (default: synchronous, one time unit per hop).")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "out" ]
             ~doc:"Write the run dump (JSONL: header + one record per \
                   completed request) to this file — $(b,gp cluster \
                   audit) input.")
  in
  let do_audit =
    Arg.(value & flag
         & info [ "audit" ]
             ~doc:"After the run, replay the workload on one bare server \
                   and diff every response fingerprint.")
  in
  let trace_out =
    Arg.(value & opt (some string) None
         & info [ "trace" ]
             ~doc:"Collect distributed traces (causal spans on every \
                   wire message) and write the trace dump (JSONL) to \
                   this file — $(b,gp cluster trace) input.")
  in
  let fleet =
    Arg.(value & flag
         & info [ "fleet-metrics" ]
             ~doc:"Print the cluster-wide fleet report, read off the run's \
                   own counts and records (per-node traffic, latency \
                   percentiles, per-shard dispatches, hot keys). Needs \
                   no tracing.")
  in
  let run replicas vnodes n seed sim_seed file failures round_robin async
      out do_audit trace_out fleet =
    let open Gp_cluster in
    if replicas < 1 || replicas > Cluster.max_replicas then begin
      Fmt.epr "bad --replicas %d: want 1..%d@." replicas Cluster.max_replicas;
      exit 2
    end;
    let failures =
      match failures with
      | None -> []
      | Some spec -> (
        match parse_failure_spec spec with
        | Ok fs -> fs
        | Error m ->
          Fmt.epr "bad --failures: %s@." m;
          exit 2)
    in
    let reqs =
      match file with
      | Some path -> (
        match
          Gp_service.Wire.requests_of_lines
            (In_channel.with_open_text path In_channel.input_lines)
        with
        | Ok reqs -> reqs
        | Error e ->
          Fmt.epr "%s: bad request line: %s@." path e;
          exit 2)
      | None ->
        Gp_service.Workload.generate ~seed ~n () |> Array.of_list
    in
    let config =
      { Cluster.default_config with
        replicas; vnodes; seed = sim_seed; failures;
        affinity = not round_robin;
        timing =
          (match async with
          | None -> Gp_distsim.Engine.Synchronous
          | Some max_delay -> Gp_distsim.Engine.Asynchronous { max_delay });
        trace = trace_out <> None }
    in
    let r = Cluster.run ~config reqs in
    Fmt.pr "%a" Cluster.pp_summary r;
    (match out with
    | None -> ()
    | Some path -> write_file path (Cluster.dump r));
    (match trace_out with
    | None -> ()
    | Some path ->
      write_file path (Gp_tracing.Trace_set.(dump (of_result r))));
    if fleet then Fmt.pr "%a" Gp_tracing.Fleet.pp_report r;
    let audit_failed =
      do_audit
      && begin
           let a = Cluster.audit r in
           Fmt.pr "%a" Cluster.pp_audit a;
           not (Cluster.audit_ok a)
         end
    in
    if r.Cluster.r_completed = Array.length reqs && not audit_failed then 0
    else 1
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Run a workload through the simulated cluster and report")
    Term.(const run $ replicas $ vnodes $ n_arg $ seed $ sim_seed $ file
          $ failures $ round_robin $ async $ out $ do_audit $ trace_out
          $ fleet)

let cluster_audit_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"DUMP.jsonl")
  in
  let run path =
    let open Gp_cluster in
    let doc = In_channel.with_open_text path In_channel.input_all in
    match Cluster.audit_dump doc with
    | Error m ->
      Fmt.epr "%s: %s@." path m;
      2
    | Ok a ->
      Fmt.pr "%a" Cluster.pp_audit a;
      if Cluster.audit_ok a then 0 else 1
  in
  Cmd.v
    (Cmd.info "audit"
       ~doc:"Re-serve a cluster dump single-node and verify every \
             response fingerprint the cluster returned")
    Term.(const run $ file)

let cluster_trace_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"TRACE.jsonl")
  in
  let rid =
    Arg.(value & pos 1 (some int) None
         & info [] ~docv:"RID"
             ~doc:"Print this request's assembled journey tree.")
  in
  let validate =
    Arg.(value & flag
         & info [ "validate" ]
             ~doc:"Check every request journey is a well-formed \
                   cross-node tree (single $(b,cluster.request) root, \
                   all parents resolve, causal nesting); exit 1 on any \
                   malformed tree.")
  in
  let chrome =
    Arg.(value & opt (some string) None
         & info [ "chrome" ]
             ~doc:"Export the whole trace set as Chrome/Perfetto JSON \
                   with one process lane per node to this file.")
  in
  let attribution =
    Arg.(value & flag
         & info [ "attribution" ]
             ~doc:"Print the tail-latency attribution: slowest requests \
                   decomposed into queueing/retry/election-stall/service \
                   segments with the dominant cause named.")
  in
  let run path rid validate chrome attribution =
    let open Gp_tracing in
    let doc = In_channel.with_open_text path In_channel.input_all in
    match Trace_set.load doc with
    | Error m ->
      Fmt.epr "%s: %s@." path m;
      2
    | Ok ts ->
      (match chrome with
      | None -> ()
      | Some out ->
        write_file out (Trace_set.to_chrome ts);
        Fmt.pr "wrote %s@." out);
      (match rid with
      | None -> ()
      | Some rid -> (
        match Trace_set.request_journey ts rid with
        | Some j -> Fmt.pr "%a" (Trace_set.pp_journey ts) j
        | None -> Fmt.pr "trace %d: no spans recorded@." rid));
      if attribution then begin
        let sgs = Attribution.of_journeys (Trace_set.journeys ts) in
        Fmt.pr "%a" Attribution.pp_summary (Attribution.summarize sgs);
        Fmt.pr "slowest requests:@.%a" Attribution.pp_table
          (Attribution.slowest sgs)
      end;
      let v = Trace_set.validate ts in
      if validate || (rid = None && chrome = None && not attribution) then
        Fmt.pr "%a" Trace_set.pp_validation v;
      if validate && not (Trace_set.validation_ok v) then 1 else 0
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Assemble, inspect, validate and export a cluster trace dump \
             ($(b,gp cluster run --trace) output)")
    Term.(const run $ file $ rid $ validate $ chrome $ attribution)

let cluster_cmd =
  Cmd.group
    (Cmd.info "cluster"
       ~doc:"Deterministically simulated sharded/replicated serving \
             cluster: sharded reads, leader-replicated writes, failover, \
             retries, distributed tracing, and a single-node consistency \
             audit")
    [ cluster_run_cmd; cluster_audit_cmd; cluster_trace_cmd ]

(* ------------------------------------------------------------------ *)
(* gp scenario                                                         *)
(* ------------------------------------------------------------------ *)

let scenario_list_cmd =
  let run () =
    List.iter
      (fun s ->
        Fmt.pr "%-14s %s@." (Gp_scenario.Scenario.name s)
          (Gp_scenario.Scenario.summary s))
      Gp_scenario.Scenario.catalog;
    0
  in
  Cmd.v
    (Cmd.info "list" ~doc:"List the scenario catalog")
    Term.(const run $ const ())

let scenario_run_cmd =
  let name_arg =
    Arg.(value & pos 0 (some string) None
         & info [] ~docv:"NAME"
             ~doc:"Catalog scenario to run (see $(b,gp scenario list)).")
  in
  let all =
    Arg.(value & flag
         & info [ "all" ] ~doc:"Run every catalog scenario in order.")
  in
  let quick =
    Arg.(value & flag
         & info [ "quick" ]
             ~doc:"Smoke mode: ~8x smaller workloads, same shape and \
                   checks.")
  in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Scenario seed.")
  in
  let do_audit =
    Arg.(value & flag
         & info [ "audit" ]
             ~doc:"Replay every served answer on a single node and diff \
                   response fingerprints; shed verdicts are excluded by \
                   construction.")
  in
  let run name all quick seed do_audit =
    let open Gp_scenario in
    let targets =
      match (name, all) with
      | None, true -> Ok Scenario.catalog
      | Some n, false -> (
        match Scenario.find n with
        | Some s -> Ok [ s ]
        | None -> Error (Printf.sprintf "unknown scenario %S" n))
      | Some _, true -> Error "give a NAME or --all, not both"
      | None, false -> Error "which scenario? give a NAME or --all"
    in
    match targets with
    | Error m ->
      Fmt.epr "%s@." m;
      2
    | Ok targets ->
      let failed = ref 0 in
      List.iter
        (fun s ->
          let o = Scenario.run ~quick ~seed ~audit:do_audit s in
          Fmt.pr "%a" Scenario.pp_outcome o;
          if not (Scenario.ok o) then incr failed)
        targets;
      if !failed > 0 then 1 else 0
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Run catalog scenarios and report; exit 1 on any violated \
             expectation")
    Term.(const run $ name_arg $ all $ quick $ seed $ do_audit)

let scenario_cmd =
  Cmd.group
    (Cmd.info "scenario"
       ~doc:"Elastic cluster scenarios: open-loop arrivals, hot-key \
             mitigation, load shedding, elastic membership, multi-tenant \
             fairness — each a deterministic simulated experiment with \
             declared expectations")
    [ scenario_list_cmd; scenario_run_cmd ]

(* ------------------------------------------------------------------ *)
(* gp structla                                                         *)
(* ------------------------------------------------------------------ *)

let structla_cmd =
  let n_arg = Arg.(value & opt int 64 & info [ "n" ] ~doc:"Matrix order.") in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Generator seed.")
  in
  let run n seed =
    if n < 1 then begin
      Fmt.epr "bad --n: %d@." n;
      exit 2
    end;
    let open Gp_structla in
    let reg = Standard.registry () in
    let sel = Select.create () in
    Fmt.pr
      "structure-aware dispatch at n=%d seed=%d (exact step counts vs \
       forced dense)@.@."
      n seed;
    Fmt.pr "%-10s %-10s %-18s %10s %10s %8s@." "structure" "detected"
      "matvec kernel" "steps" "dense" "speedup";
    let ok = ref true in
    List.iter
      (fun structure ->
        match Mat.generate ~structure ~n ~seed with
        | None -> ok := false
        | Some g -> (
          let d = Mat.to_dense g in
          let m = Detect.classify g in
          let x = Mat.generate_vec ~n ~seed in
          (* the selected kernel must agree with the forced-dense one,
             whose step count the last columns compare against *)
          match
            (Select.matvec reg sel m x, Select.matvec reg sel (Mat.Dense d) x)
          with
          | Error e, _ | _, Error e ->
            ok := false;
            Fmt.pr "%-10s resolution failed: %s@." structure e
          | Ok (kernel, y), Ok (_, y_dense) ->
            if not (Mat.vec_close y y_dense) then begin
              ok := false;
              Fmt.pr "%-10s MISMATCH vs forced dense@." structure
            end
            else begin
              let steps = Kernels.matvec_steps m in
              let dense = Kernels.matvec_steps (Mat.Dense d) in
              Fmt.pr "%-10s %-10s %-18s %10d %10d %7.1fx@." structure
                (Mat.structure_name m) kernel steps dense
                (float_of_int dense /. float_of_int steps)
            end))
      Mat.structure_names;
    Fmt.pr "@.matmul / solve selections (most refined guard wins):@.";
    List.iter
      (fun structure ->
        match Mat.generate ~structure ~n ~seed with
        | None -> ()
        | Some g ->
          let m = Detect.classify g in
          let show op =
            match Select.resolve reg sel op m with
            | Gp_concepts.Overload.Selected (c, _) ->
              c.Gp_concepts.Overload.cand_name
            | _ ->
              ok := false;
              "<unresolved>"
          in
          Fmt.pr "  %-10s matmul -> %-16s solve -> %s@." structure
            (show Select.Matmul) (show Select.Solve))
      Mat.structure_names;
    if !ok then 0 else 1
  in
  Cmd.v
    (Cmd.info "structla"
       ~doc:"Demonstrate structure detection and concept-guided kernel \
             selection on deterministically generated matrices")
    Term.(const run $ n_arg $ seed)

(* ------------------------------------------------------------------ *)
(* gp complexity                                                       *)
(* ------------------------------------------------------------------ *)

(* Sweep the registered-operation catalog over the size ladder, fit
   growth models to the exact step/message counts, and compare each
   best fit against the declared Complexity bound. Exit 1 when any
   verdict differs from its expectation — a genuine operation flagged
   as violating, or the planted oracle slipping through. *)
let complexity_cmd =
  let ops_arg =
    Arg.(value & opt_all string []
         & info [ "op" ] ~docv:"NAME"
             ~doc:"Only sweep the named operation(s); repeatable.")
  in
  let json =
    Arg.(value & flag
         & info [ "json" ] ~doc:"Emit the report as JSON on stdout.")
  in
  let prometheus =
    Arg.(value & flag
         & info [ "prometheus" ]
             ~doc:"Emit the fitted-exponent/residual gauges as a Prometheus \
                   exposition on stdout.")
  in
  let run only json prometheus =
    let open Gp_complexity_obs in
    let catalog = Catalog.ops () in
    let selected =
      if only = [] then catalog
      else begin
        List.iter
          (fun name ->
            if
              not
                (List.exists
                   (fun o -> String.equal o.Sweep.op_name name)
                   catalog)
            then Fmt.epr "unknown operation %S (run without --op for names)@." name)
          only;
        List.filter (fun o -> List.mem o.Sweep.op_name only) catalog
      end
    in
    if selected = [] then begin
      Fmt.epr "no operations selected@.";
      2
    end
    else begin
      let entries =
        List.map
          (fun op -> Report.analyze (Sweep.run op))
          selected
      in
      if json then print_string (Report.to_json entries)
      else if prometheus then begin
        let metrics = Gp_telemetry.Metrics.create () in
        Report.export_metrics metrics entries;
        print_string (Gp_telemetry.Metrics.to_prometheus metrics)
      end
      else Report.table Fmt.stdout entries;
      if Report.ok entries then 0 else 1
    end
  in
  Cmd.v
    (Cmd.info "complexity"
       ~doc:"Empirically verify declared complexity bounds: sweep registered \
             operations across a size ladder, fit growth models to exact \
             step counts, and flag implementations growing faster than their \
             declared O-bound")
    Term.(const run $ ops_arg $ json $ prometheus)

(* ------------------------------------------------------------------ *)
(* gp bench-diff                                                       *)
(* ------------------------------------------------------------------ *)

(* allocation counts are exact: the slack is for the rare major-words
   wobble, not for noise *)
let count_tolerance = 0.005

(* The perf-regression guard over two `bench --json` result files.
   Metric names carry their own direction: the _speedup and
   _per_wall_sec suffixes are higher-better as a ratio, _pct is
   lower-better in additive percentage points, a name containing
   bytes_per_request, minor_words or major_words is an allocation count
   (deterministic, or within 0.1 % for major words after a warm-up, and
   independent of timing), as is a name containing heap_peak (an exact
   event count), held to a fixed 0.5 % either way: a rise is a regression, a fall is a stale
   baseline that must be re-recorded, _fitted_degree must match exactly
   (a fitted complexity class has no tolerance: growing from O(n) to
   O(n log n) is the regression s8 exists to catch — and an improvement
   means the declared bound should be tightened, deliberately),
   _residual is lower-better with additive tolerance (fit quality in
   log space, where 0 is exact), a name containing _iqr is a quartile
   spread, itself too noisy to gate: it is reported when it moves beyond
   the tolerance either way, never failed, and everything else — the
   _ns times — is lower-better as a ratio. An exact key of OLD (a count
   or a _fitted_degree) that NEW drops, renames or leaves null is
   MISSING, and so is a whole section of OLD that NEW lacks: both fail,
   since a gate that loses its key would otherwise pass silently. *)
let bench_diff_cmd =
  let old_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"OLD.json")
  in
  let new_arg =
    Arg.(required & pos 1 (some file) None & info [] ~docv:"NEW.json")
  in
  let tolerance =
    Arg.(value & opt float 0.25
         & info [ "tolerance" ]
             ~doc:"Allowed relative slack per metric (default 0.25 = 25%; \
                   for *_pct metrics, 100x this in additive points). Bench \
                   numbers are noisy; keep this generous. Allocation \
                   counts (names containing minor_words, major_words, \
                   bytes_per_request or heap_peak) ignore it: they fail on a move of \
                   more than 0.5% either way.")
  in
  let run old_path new_path tolerance =
    let module Json = Gp_telemetry.Json in
    let load path =
      match In_channel.with_open_text path In_channel.input_all with
      | exception Sys_error m -> Error m
      | doc -> (
        match Json.obj_field "sections" (Json.parse doc) with
        | sections -> Ok sections
        | exception Json.Error m -> Error (path ^ ": " ^ m))
    in
    (* null = not measured in that run, and a non-number is no metric:
       both are skipped *)
    let metric name section =
      match Json.num_field name section with
      | v when Float.is_nan v -> None
      | v -> Some v
      | exception Json.Error _ -> None
    in
    let ends_with suffix s =
      String.length s >= String.length suffix
      && String.sub s (String.length s - String.length suffix)
           (String.length suffix)
         = suffix
    in
    let contains part s =
      let n = String.length s and m = String.length part in
      let rec go i = i + m <= n && (String.sub s i m = part || go (i + 1)) in
      go 0
    in
    let is_count name =
      contains "minor_words" name || contains "major_words" name
      || contains "bytes_per_request" name || contains "heap_peak" name
    in
    match (load old_path, load new_path) with
    | Error m, _ | _, Error m ->
      Fmt.epr "%s@." m;
      2
    | Ok old_sections, Ok new_sections ->
      let compared = ref 0 in
      let regressions = ref 0 in
      let stale = ref 0 in
      let spreads = ref 0 in
      List.iter
        (fun (sec, metrics) ->
          match (metrics, List.assoc_opt sec old_sections) with
          | Json.Obj names, Some old ->
            List.iter
              (fun (name, _) ->
                match (metric name metrics, metric name old) with
                | Some nv, Some ov when contains "_iqr" name ->
                  incr compared;
                  if nv > ov *. (1.0 +. tolerance)
                     || nv < ov *. (1.0 -. tolerance)
                  then begin
                    incr spreads;
                    Fmt.pr "SPREAD %s/%s: %.1f -> %.1f (reported, not gated)@."
                      sec name ov nv
                  end
                | Some nv, Some ov ->
                  incr compared;
                  let regressed, msg =
                    if ends_with "_speedup" name then
                      ( nv < ov *. (1.0 -. tolerance),
                        Printf.sprintf "%.2fx -> %.2fx" ov nv )
                    else if ends_with "_per_wall_sec" name then
                      (* a throughput: higher-better as a ratio *)
                      ( nv < ov *. (1.0 -. tolerance),
                        Printf.sprintf "%.0f/s -> %.0f/s" ov nv )
                    else if ends_with "_fitted_degree" name then
                      ( nv <> ov,
                        Printf.sprintf "degree %.1f -> %.1f" ov nv )
                    else if ends_with "_residual" name then
                      ( nv > ov +. tolerance,
                        Printf.sprintf "%.3f -> %.3f" ov nv )
                    else if ends_with "_pct" name then
                      ( nv > ov +. (tolerance *. 100.0),
                        Printf.sprintf "%.2f%% -> %.2f%%" ov nv )
                    else if ends_with "_shed_ratio" name then
                      (* shed fractions live in [0,1] and are often 0:
                         additive slack, so a zero baseline never turns
                         into a divide-amplified gate *)
                      ( nv > ov +. tolerance,
                        Printf.sprintf "%.3f -> %.3f" ov nv )
                    else if ends_with "_moved_keys" name then
                      (* deterministic movement counts, lower-better;
                         +1 smoothing so a zero baseline doesn't gate on
                         a single moved key *)
                      ( nv > (ov +. 1.0) *. (1.0 +. tolerance),
                        Printf.sprintf "%.0f -> %.0f" ov nv )
                    else if is_count name then
                      (* a rise; a fall is caught as stale below *)
                      ( nv > ov *. (1.0 +. count_tolerance),
                        Printf.sprintf "%.1f -> %.1f" ov nv )
                    else
                      ( nv > ov *. (1.0 +. tolerance),
                        Printf.sprintf "%.0f -> %.0f" ov nv )
                  in
                  if regressed then begin
                    incr regressions;
                    Fmt.pr "REGRESSION %s/%s: %s@." sec name msg
                  end
                  else if is_count name && nv < ov *. (1.0 -. count_tolerance)
                  then begin
                    incr stale;
                    Fmt.pr "STALE %s/%s: %.1f -> %.1f (re-record the \
                            baseline)@."
                      sec name ov nv
                  end
                | _ -> () (* null or missing on either side: skip *))
              names
          | _ -> () (* section absent from the old run: skip *))
        new_sections;
      let missing = ref 0 in
      let report_missing what =
        incr missing;
        Fmt.pr "MISSING %s@." what
      in
      List.iter
        (fun (sec, old) ->
          match (old, List.assoc_opt sec new_sections) with
          | _, None -> report_missing sec
          | Json.Obj names, Some metrics ->
            List.iter
              (fun (name, _) ->
                if
                  (is_count name || ends_with "_fitted_degree" name)
                  && Option.is_some (metric name old)
                  && Option.is_none (metric name metrics)
                then report_missing (sec ^ "/" ^ name))
              names
          | _ -> ())
        old_sections;
      if !compared = 0 && !missing = 0 then begin
        Fmt.epr "no comparable metrics between %s and %s@." old_path new_path;
        2
      end
      else begin
        Fmt.pr "bench-diff: %d metric(s) compared, %d regression(s)%s%s%s \
                (tolerance %.0f%%)@."
          !compared !regressions
          (if !stale > 0 then Printf.sprintf ", %d stale count(s)" !stale
           else "")
          (if !missing > 0 then Printf.sprintf ", %d missing" !missing
           else "")
          (if !spreads > 0 then
             Printf.sprintf ", %d spread(s) moved" !spreads
           else "")
          (tolerance *. 100.0);
        if !regressions + !stale + !missing > 0 then 1 else 0
      end
  in
  Cmd.v
    (Cmd.info "bench-diff"
       ~doc:"Compare two bench --json result files and fail (exit 1) on \
             per-metric perf regressions beyond the tolerance, on \
             allocation counts that fell (a stale baseline), or on exact \
             keys and sections of the old file missing from the new one; \
             quartile spreads (names containing _iqr) are reported, never \
             gated")
    Term.(const run $ old_arg $ new_arg $ tolerance)

let () =
  let doc = "generic programming and high-performance libraries, reproduced" in
  let info = Cmd.info "gp" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [ check_cmd; parse_cmd; concepts_cmd; lint_cmd; optimize_cmd;
            prove_cmd; elect_cmd; taxonomy_cmd; structla_cmd; serve_cmd;
            workload_cmd; trace_cmd; replay_cmd; cluster_cmd; scenario_cmd;
            complexity_cmd; bench_diff_cmd ]))
