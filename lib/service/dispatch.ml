(* The dispatcher: one handler per request kind over the existing
   libraries, threaded through the memo caches and the per-request budget.

   Handlers are total over well-typed requests: library exceptions that a
   request can legitimately provoke (parse errors, unknown names,
   non-terminating rewrite systems) map to structured errors; anything
   else is caught by the server and reported as Internal. Budget steps are
   charged at stage boundaries — per declaration, statement, theorem,
   obligation — so over-budget behaviour is deterministic. *)

open Gp_concepts
module Tel = Gp_telemetry.Tel

type caches = {
  closures : string list Lru.t;
      (* propagation closures, pre-rendered: the cache stores the
         obligation strings the payload ships, so a hit allocates no
         per-request rendering *)
  defs : Lang.item list Lru.t; (* parsed .gpc declarations *)
  lint : Request.payload Lru.t; (* Linted payloads by program hash *)
  cert : Gp_simplicissimus.Certify.certification list Lru.t;
      (* certified rewrite rules *)
  proofs : (string * bool) list Lru.t; (* checked proof instantiations *)
  rewrites : Gp_simplicissimus.Engine.result Lru.t; (* normal forms by expr *)
  numerics : Request.payload Lru.t; (* Computed payloads by (op,triple) *)
}

let create_caches ~capacity =
  { closures = Lru.create ~capacity "closures";
    defs = Lru.create ~capacity "defs";
    lint = Lru.create ~capacity "lint";
    cert = Lru.create ~capacity:4 "cert";
    proofs = Lru.create ~capacity "proofs";
    rewrites = Lru.create ~capacity "rewrites";
    numerics = Lru.create ~capacity "numerics" }

let cache_stats c =
  [ Lru.stats c.closures; Lru.stats c.defs; Lru.stats c.lint;
    Lru.stats c.cert; Lru.stats c.proofs; Lru.stats c.rewrites;
    Lru.stats c.numerics ]

(* Allocation-free twin of [cache_stats] for the per-request cache-delta
   snapshot: hit/miss counters written into a caller-owned array
   ([hits.(2i)], [misses.(2i+1)]), one slot pair per cache in
   [cache_names] order. *)
let cache_names =
  [| "closures"; "defs"; "lint"; "cert"; "proofs"; "rewrites"; "numerics" |]

let cache_counters_into c (dst : int array) =
  let put i (lru : _ Lru.t) =
    dst.(2 * i) <- Lru.hits lru;
    dst.((2 * i) + 1) <- Lru.misses lru
  in
  put 0 c.closures;
  put 1 c.defs;
  put 2 c.lint;
  put 3 c.cert;
  put 4 c.proofs;
  put 5 c.rewrites;
  put 6 c.numerics

let clear_caches c =
  Lru.clear c.closures;
  Lru.clear c.defs;
  Lru.clear c.lint;
  Lru.clear c.cert;
  Lru.clear c.proofs;
  Lru.clear c.rewrites;
  Lru.clear c.numerics

type t = {
  registry : Registry.t;
      (* the shared standard world; never mutated here — sandboxes fork it *)
  insts : Gp_simplicissimus.Instances.t;
  rules : Gp_simplicissimus.Rules.t list;
  select : Gp_structla.Select.t; (* the three numeric overload generics *)
  caches : caches;
}

let create ~declare_standard ~cache_capacity () =
  let registry = Registry.create () in
  declare_standard registry;
  { registry;
    insts = Gp_simplicissimus.Instances.standard ();
    rules =
      Gp_simplicissimus.Rules.builtin
      @ [ Gp_simplicissimus.Rules.lidia_inverse ];
    select = Gp_structla.Select.create ();
    caches = create_caches ~capacity:cache_capacity }

let registry t = t.registry
let caches t = t.caches

let err code detail = Error { Request.code; detail }

(* ------------------------------------------------------------------ *)
(* Stage helpers                                                       *)
(* ------------------------------------------------------------------ *)

(* Parse a .gpc source through the defs cache. *)
let parsed_defs t ~caching ~budget source =
  let key = "gpc|" ^ Digest.to_hex (Digest.string source) in
  let items, hit =
    Lru.find_or_compute t.caches.defs ~enabled:caching key (fun () ->
        Lang.parse_string source)
  in
  Budget.spend budget (if hit then 1 else 1 + List.length items);
  (items, hit)

(* The certified-rule set, computed once (per eviction) and shared by
   every optimize request: each built-in rule's backing theorem runs
   through the proof checker — the expensive stage the cache elides. *)
let certifications t ~caching ~budget =
  let certs, hit =
    Lru.find_or_compute t.caches.cert ~enabled:caching "builtin" (fun () ->
        Gp_simplicissimus.Certify.certify_builtin ())
  in
  Budget.spend budget (if hit then 1 else 10 * List.length certs);
  (certs, hit)

(* ------------------------------------------------------------------ *)
(* Handlers                                                            *)
(* ------------------------------------------------------------------ *)

(* A [Check] carrying defs runs against its own scope: a fork of the
   shared standard registry with the defs loaded into it. Forking is
   O(1) and the fork indexes only the defs, so the sandbox costs the
   size of the defs, not of the standard world. *)
let sandbox t items =
  let reg = Registry.fork t.registry in
  Lang.load_items reg items;
  reg

let handle_check t ~caching ~budget ~concept ~types ~nominal ~defs =
  let sandbox_result =
    match defs with
    | None -> Ok (t.registry, false)
    | Some source -> (
      match parsed_defs t ~caching ~budget source with
      | items, hit -> (
        Budget.spend budget (List.length items);
        match
          if Tel.is_enabled () then
            Tel.with_span ~name:"service.sandbox" (fun () -> sandbox t items)
          else sandbox t items
        with
        | reg -> Ok (reg, hit)
        | exception Registry.Duplicate what ->
          Error ({ Request.code = Request.Parse_failure;
                   detail = "duplicate declaration of " ^ what }, hit))
      | exception Lang.Parse_error { line; col; message } ->
        Error ({ Request.code = Request.Parse_failure;
                 detail = Printf.sprintf ".gpc:%d:%d: %s" line col message },
               false))
  in
  match sandbox_result with
  | Error (e, hit) -> (Error e, hit)
  | Ok (reg, hit) ->
    let mode = if nominal then Check.Nominal else Check.Structural in
    let args = List.map (fun ty -> Ctype.Named ty) types in
    let report = Check.check ~mode reg concept args in
    Budget.spend budget
      (5
      + List.length report.Check.rep_failures
      + List.length report.Check.rep_warnings);
    ( Ok
        (Request.Checked
           { ok = Check.ok report;
             failures = List.length report.Check.rep_failures;
             warnings = List.length report.Check.rep_warnings;
             report = Fmt.str "%a" Check.pp_report report }),
      hit )

let handle_parse t ~caching ~budget ~source =
  match parsed_defs t ~caching ~budget source with
  | items, hit ->
    let count p = List.length (List.filter p items) in
    ( Ok
        (Request.Parsed
           { items = List.length items;
             concepts = count (function Lang.Iconcept _ -> true | _ -> false);
             models = count (function Lang.Imodel _ -> true | _ -> false) }),
      hit )
  | exception Lang.Parse_error { line; col; message } ->
    (err Request.Parse_failure (Printf.sprintf ".gpc:%d:%d: %s" line col message),
     false)

let handle_lint t ~caching ~budget ~source =
  let open Gp_stllint in
  let key = "lint|" ^ Digest.to_hex (Digest.string source) in
  match
    Lru.find_or_compute t.caches.lint ~enabled:caching key (fun () ->
        let program = Parser.parse_program source in
        Budget.spend budget (List.length program);
        let ds = Interp.check program in
        Request.Linted
          { errors = List.length (Interp.errors ds);
            warnings = List.length (Interp.warnings ds);
            suggestions = List.length (Interp.suggestions ds);
            messages =
              List.map (fun d -> Fmt.str "%a" Interp.pp_diagnostic d) ds })
  with
  | (Request.Linted { messages; _ } as payload), hit ->
    (* one diagnostic per message, so the budget charge is unchanged *)
    Budget.spend budget (1 + List.length messages);
    (Ok payload, hit)
  | _, _ -> assert false (* the lint cache only ever stores [Linted] *)
  | exception Parser.Parse_error { line; message } ->
    (err Request.Parse_failure (Printf.sprintf "program:%d: %s" line message), false)

let handle_optimize t ~caching ~budget ~expr ~certified_only =
  let open Gp_simplicissimus in
  match Sparser.parse expr with
  | exception Sparser.Parse_error m -> (err Request.Parse_failure m, false)
  | e -> (
    (* Certification is the expensive stage; the engine's only_certified
       mode reads the verdicts the certifier stamped on the rules. *)
    let _, cert_hit = certifications t ~caching ~budget in
    let key =
      (if certified_only then "rw|true|" else "rw|false|")
      ^ Digest.to_hex (Digest.string (Expr.to_string e))
    in
    match
      Lru.find_or_compute t.caches.rewrites ~enabled:caching key (fun () ->
          Engine.rewrite ~only_certified:certified_only ~rules:t.rules
            ~insts:t.insts e)
    with
    | r, hit ->
      Budget.spend budget (1 + List.length r.Engine.steps);
      ( Ok
          (Request.Optimized
             { output = Expr.to_string r.Engine.output;
               steps = List.length r.Engine.steps;
               ops_before = r.Engine.ops_before;
               ops_after = r.Engine.ops_after }),
        hit && cert_hit )
    | exception Engine.Did_not_terminate _ ->
      (err Request.Over_budget "rewriting exceeded its step budget", false))

(* The prove tables mirror bin/gp's prove command: a theory names its
   instance mappings, per-instance axioms, and theorem builders. *)
let prove_plan theory instance =
  let open Gp_athena in
  let for_lts lts theorems axioms_of =
    List.map
      (fun lt ->
        ( lt,
          axioms_of lt,
          List.map (fun f -> f ~lt) theorems ))
      lts
  in
  let plan =
    match theory with
    | "swo" ->
      Some
        (for_lts [ "int_lt"; "string_lt" ]
           [ Theorems.swo_e_reflexive; Theorems.swo_e_symmetric;
             Theorems.swo_e_transitive; Theorems.swo_asymmetric ]
           (fun lt -> Theory.strict_weak_order ~lt))
    | "orders" ->
      Some
        (List.map
           (fun leq ->
             ( leq,
               Theory.total_order ~leq,
               List.map
                 (fun f -> f ~leq)
                 [ Theorems.strict_irreflexive; Theorems.strict_transitive;
                   Theorems.strict_equiv_transitive ] ))
           [ "int_le"; "string_le"; "rational_le" ])
    | "monoid" ->
      Some
        (List.map
           (fun m ->
             ( Theory.map_name m,
               Theory.monoid m,
               List.map
                 (fun f -> f m)
                 [ Theorems.monoid_right_identity;
                   Theorems.monoid_identity_unique ] ))
           Theory.monoid_instances)
    | "group" ->
      Some
        (List.map
           (fun m ->
             ( Theory.map_name m,
               Theory.group_minimal m,
               List.map
                 (fun f -> f m)
                 [ Theorems.group_right_inverse; Theorems.group_right_identity;
                   Theorems.group_double_inverse;
                   Theorems.group_left_cancellation ] ))
           Theory.group_instances)
    | "ring" ->
      let rm =
        { Theory.r_name = "int"; add = Theory.int_add; mul = Theory.int_mul }
      in
      Some
        [ ( "int",
            Theory.ring rm,
            List.map
              (fun f -> f rm)
              [ Theorems.ring_mul_zero; Theorems.ring_zero_mul ] ) ]
    | _ -> None
  in
  match plan with
  | None -> Error ("unknown theory " ^ theory)
  | Some all -> (
    match instance with
    | None -> Ok all
    | Some name -> (
      match List.filter (fun (n, _, _) -> n = name) all with
      | [] ->
        Error
          (Printf.sprintf "theory %s has no instance %s (have: %s)" theory
             name
             (String.concat ", " (List.map (fun (n, _, _) -> n) all)))
      | some -> Ok some))

let handle_prove t ~caching ~budget ~theory ~instance =
  let open Gp_athena in
  match prove_plan theory instance with
  | Error detail -> (err Request.Unknown_name detail, false)
  | Ok plan -> (
    let key =
      "prove|" ^ theory ^ "|" ^ Option.value ~default:"*" instance
    in
    match
      Lru.find_or_compute t.caches.proofs ~enabled:caching key (fun () ->
          List.concat_map
            (fun (iname, axioms, theorems) ->
              List.map
                (fun (thm : Theorems.theorem) ->
                  (* proof checking is the expensive stage: charge per
                     theorem before running the checker *)
                  Budget.spend budget 25;
                  ( iname ^ "/" ^ thm.Theorems.thm_name,
                    Theorems.verify ~axioms thm = Deduction.Proved ))
                theorems)
            plan)
    with
    | verdicts, hit ->
      Budget.spend budget 1;
      let failed = List.length (List.filter (fun (_, ok) -> not ok) verdicts) in
      (Ok (Request.Proved { checked = List.length verdicts; failed }), hit))

let handle_closure t ~caching ~budget ~concept ~types =
  match Registry.find_concept t.registry concept with
  | None -> (err Request.Unknown_name ("unknown concept " ^ concept), false)
  | Some _ ->
    let args = List.map (fun ty -> Ctype.Named ty) types in
    let key = Propagate.request_key t.registry concept args in
    let obligations, hit =
      (* one rendered string per obligation, so lengths — and therefore
         the budget charge — match the unrendered closure exactly *)
      Lru.find_or_compute t.caches.closures ~enabled:caching key (fun () ->
          List.map
            (fun ob -> Fmt.str "%a" Propagate.pp_obligation ob)
            (Propagate.closure t.registry concept args))
    in
    Budget.spend budget (if hit then 1 else 1 + List.length obligations);
    (Ok (Request.Closed { size = List.length obligations; obligations }), hit)

(* Structure-aware numerics: regenerate the matrix from the request's
   (structure, n, seed) triple, classify it, and let concept-guided
   overload resolution pick the kernel. The exact kernel step count is
   the budget charge, levied after the cache probe on hit and miss alike
   — like the optimizer's rewrite steps — so Over_budget outcomes are
   cache-independent, which deterministic replay requires. *)

let max_numeric_n = 256

let handle_numeric t ~caching ~budget ~op ~structure ~n ~seed =
  let open Gp_structla in
  if not (Mat.known_structure structure) then
    ( err Request.Unknown_name
        (Printf.sprintf "unknown structure %S (have: %s)" structure
           (String.concat ", " Mat.structure_names)),
      false )
  else if n < 1 || n > max_numeric_n then
    ( err Request.Bad_request
        (Printf.sprintf "n=%d outside 1..%d" n max_numeric_n),
      false )
  else begin
    let key =
      "num|" ^ Select.op_name op ^ "|" ^ structure ^ "|" ^ string_of_int n
      ^ "|" ^ string_of_int seed
    in
    let payload, hit =
      Lru.find_or_compute t.caches.numerics ~enabled:caching key (fun () ->
          let d = Option.get (Mat.generate_dense ~structure ~n ~seed) in
          let m = Detect.classify d in
          let steps, outcome =
            match op with
            | Select.Matvec ->
              ( Kernels.matvec_steps m,
                Result.map
                  (fun (k, y) -> (k, Mat.checksum_vec y))
                  (Select.matvec t.registry t.select m
                     (Mat.generate_vec ~n ~seed)) )
            | Select.Matmul ->
              ( Kernels.matmul_steps m,
                Result.map
                  (fun (k, c) -> (k, Mat.checksum_dense (Mat.to_dense c)))
                  (Select.matmul t.registry t.select m m) )
            | Select.Solve ->
              ( Kernels.solve_steps m,
                Result.map
                  (fun (k, x) -> (k, Mat.checksum_vec x))
                  (Select.solve t.registry t.select m
                     (Mat.generate_vec ~n ~seed)) )
          in
          match outcome with
          | Ok (kernel, checksum) ->
            Request.Computed
              { kernel; detected = Mat.structure_name m; n; steps; checksum }
          | Error diag ->
            (* every carrier has a dense fallback for all three generics,
               so a resolution failure here is a dispatcher bug: escape
               and let the server report Internal *)
            failwith diag)
    in
    (match payload with
    | Request.Computed { steps; _ } -> Budget.spend budget (1 + steps)
    | _ -> Budget.spend budget 1);
    (Ok payload, hit)
  end

let handle t ~caching ~budget (req : Request.t) :
    (Request.payload, Request.error) result * bool =
  match req with
  | Request.Check { concept; types; nominal; defs } ->
    handle_check t ~caching ~budget ~concept ~types ~nominal ~defs
  | Request.Parse { source } -> handle_parse t ~caching ~budget ~source
  | Request.Lint { source } -> handle_lint t ~caching ~budget ~source
  | Request.Optimize { expr; certified_only } ->
    handle_optimize t ~caching ~budget ~expr ~certified_only
  | Request.Prove { theory; instance } ->
    handle_prove t ~caching ~budget ~theory ~instance
  | Request.Closure { concept; types } ->
    handle_closure t ~caching ~budget ~concept ~types
  | Request.Matvec { structure; n; seed } ->
    handle_numeric t ~caching ~budget ~op:Gp_structla.Select.Matvec ~structure
      ~n ~seed
  | Request.Matmul { structure; n; seed } ->
    handle_numeric t ~caching ~budget ~op:Gp_structla.Select.Matmul ~structure
      ~n ~seed
  | Request.Solve { structure; n; seed } ->
    handle_numeric t ~caching ~budget ~op:Gp_structla.Select.Solve ~structure
      ~n ~seed
