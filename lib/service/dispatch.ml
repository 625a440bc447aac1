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
module Json = Gp_telemetry.Json

(* A .gpc source's parse, and the sandbox a [Check] runs in: a fork of
   the shared world with the items loaded, or the duplicate declaration
   that stopped the load. The first check that needs the sandbox builds
   it; every later check with the same defs reuses it, verdict memo
   included. *)
type defs = {
  items : Lang.item list;
  mutable scope : (Registry.t, Request.error) result option;
  mutable parsed : Request.entry;
      (* the [Parsed] answer, or [Request.no_entry] until first asked *)
}

(* An LRU of any value type, so one table can hold them all. *)
type cache = Cache : _ Lru.t -> cache

(* Every key is content: the request text itself (defs, lint, optimize)
   or a structural encoding of it, never a digest, so two keys are equal
   exactly when the requests are. *)
type caches = {
  closures : Request.entry Lru.t;
      (* Closed answers by concept and arguments: the obligation strings
         pre-rendered, so a hit allocates no per-request rendering *)
  defs : defs Lru.t; (* parsed .gpc declarations and their sandbox *)
  lint : Request.entry Lru.t; (* Linted answers by program text *)
  cert : Gp_simplicissimus.Certify.certification list Lru.t;
      (* the built-in rules' certifications *)
  proofs : Request.entry Lru.t; (* Proved answers by theory and instance *)
  rewrites : Request.entry Lru.t;
      (* Optimized answers by mode and expression text, output
         pre-rendered *)
  numerics : Request.entry Lru.t; (* Computed answers by (op,triple) *)
  table : cache array;
      (* the seven above, in this order: what stats and clearing walk *)
  counts : int array;
      (* their hit/miss counters, a pair per cache in table order *)
}

let create_caches ~capacity =
  let counts = Array.make 14 0 in
  let lru i = Lru.create ~counts:(counts, 2 * i) in
  let closures = lru 0 ~capacity "closures"
  and defs = lru 1 ~capacity "defs"
  and lint = lru 2 ~capacity "lint"
  and cert = lru 3 ~capacity:4 "cert"
  and proofs = lru 4 ~capacity "proofs"
  and rewrites = lru 5 ~capacity "rewrites"
  and numerics = lru 6 ~capacity "numerics" in
  { closures; defs; lint; cert; proofs; rewrites; numerics; counts;
    table =
      [| Cache closures; Cache defs; Cache lint; Cache cert; Cache proofs;
         Cache rewrites; Cache numerics |] }

let cache_names =
  Array.map (fun (Cache lru) -> Lru.name lru) (create_caches ~capacity:1).table

let cache_stats c =
  Array.fold_right (fun (Cache lru) acc -> Lru.stats lru :: acc) c.table []

let cache_counters c = c.counts

let clear_caches c = Array.iter (fun (Cache lru) -> Lru.clear lru) c.table

type t = {
  registry : Registry.t;
      (* Standard.world (), shared by every server in the process; never
         mutated here — sandboxes fork it *)
  insts : Gp_simplicissimus.Instances.t; (* answers from [registry] *)
  rules : Gp_simplicissimus.Rules.t list;
  select : Gp_structla.Select.t; (* the three numeric overload generics *)
  caches : caches;
  key_buf : Buffer.t; (* scratch for cache keys; see [key_buf] *)
  mutable cached : bool;
  mutable entry : Request.entry;
      (* how the last [handle] was served: whether from the caches, and
         the entry it was served from (else [Request.no_entry]) —
         reused fields, so a hit builds no tuple *)
}

(* Built once per process, like the world; never mutated. *)
let standard_insts =
  lazy (Gp_simplicissimus.Instances.standard (Gp_standard.Standard.world ()))

let create ~cache_capacity () =
  { registry = Gp_standard.Standard.world ();
    insts = Lazy.force standard_insts;
    rules = Gp_simplicissimus.Rules.standard;
    select = Gp_structla.Select.create ();
    caches = create_caches ~capacity:cache_capacity;
    key_buf = Buffer.create 256;
    cached = false;
    entry = Request.no_entry }

let caches t = t.caches
let cached t = t.cached
let entry t = t.entry

let err code detail = Error { Request.code; detail }

(* ------------------------------------------------------------------ *)
(* Stage helpers                                                       *)
(* ------------------------------------------------------------------ *)

(* Parse a .gpc source through the defs cache. *)
let parsed_defs t ~caching ~budget source =
  let d, hit =
    Lru.find_or_compute t.caches.defs ~enabled:caching source (fun () ->
        { items = Lang.parse_string source; scope = None;
          parsed = Request.no_entry })
  in
  Budget.spend budget (if hit then 1 else 1 + List.length d.items);
  (d, hit)

(* The built-in rules' certifications, computed once (per eviction) and
   shared by every optimize request: each rule's backing theorem runs
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
   size of the defs, not of the standard world; it is built once per
   defs entry. *)
let sandbox t items =
  let reg = Registry.fork t.registry in
  Lang.load_items reg items;
  reg

let scope t d =
  match d.scope with
  | Some s -> s
  | None ->
    let s =
      match
        if Tel.is_enabled () then
          Tel.with_span ~name:"service.sandbox" (fun () -> sandbox t d.items)
        else sandbox t d.items
      with
      | reg -> Ok reg
      | exception Registry.Duplicate what ->
        Error { Request.code = Request.Parse_failure;
                detail = "duplicate declaration of " ^ what }
    in
    d.scope <- Some s;
    s

(* The answer LRUs (closures, lint, proofs, rewrites, numerics) share one
   path. A probe returns the entry, or the static [Request.no_entry] on a
   miss or with caching off (no lookup, no stats). A hit hands back the
   entry's answer as it is and leaves the entry in [t.entry], where the
   response picks it up with its stored fragment and digest; a computed
   answer becomes a fresh entry. *)
let lookup ~caching lru key =
  if caching then Lru.find_or lru key Request.no_entry else Request.no_entry

let served t (e : Request.entry) =
  t.cached <- true;
  t.entry <- e;
  e.Request.e_result

let answer ~caching lru key payload =
  if caching then begin
    let e = Request.entry payload in
    Lru.add lru key e;
    e.Request.e_result
  end
  else Ok payload

(* A check answer is a function of its verdict alone, so with caching on
   it is built, rendered and digested once per verdict and kept in the
   verdict memo's entry. The [cached] flag still says only whether the
   defs came from the cache. *)
type Check.answer += Answer of Request.entry

let checked report text =
  Request.Checked
    { ok = Check.ok report;
      failures = List.length report.Check.rep_failures;
      warnings = List.length report.Check.rep_warnings;
      report = text }

let checked_answer report text = Answer (Request.entry (checked report text))

let handle_check t ~caching ~budget ~concept ~types ~nominal ~defs =
  let sandbox_result =
    match defs with
    | None -> Ok (t.registry, false)
    | Some source -> (
      match parsed_defs t ~caching ~budget source with
      | d, hit -> (
        Budget.spend budget (List.length d.items);
        match scope t d with
        | Ok reg -> Ok (reg, hit)
        | Error e -> Error (e, hit))
      | exception Lang.Parse_error { line; col; message } ->
        Error ({ Request.code = Request.Parse_failure;
                 detail = Printf.sprintf ".gpc:%d:%d: %s" line col message },
               false))
  in
  match sandbox_result with
  | Error (e, hit) ->
    t.cached <- hit;
    Error e
  | Ok (reg, hit) -> (
    let mode = if nominal then Check.Nominal else Check.Structural in
    let args = List.map (fun ty -> Ctype.Named ty) types in
    let result =
      if caching then begin
        match Check.check_answer ~mode reg concept args checked_answer with
        | Answer e ->
          t.entry <- e;
          e.Request.e_result
        | _ -> assert false (* the verdict memo keeps only [Answer]s here *)
      end
      else
        let report, text = Check.check_rendered ~mode reg concept args in
        Ok (checked report text)
    in
    match result with
    | Ok (Request.Checked { failures; warnings; _ }) ->
      Budget.spend budget (5 + failures + warnings);
      t.cached <- hit;
      result
    | _ -> assert false)

(* A parse answer is a function of the defs alone: with caching on it
   is kept in the defs entry, built, rendered and digested once. *)
let parsed items =
  let count p = List.length (List.filter p items) in
  Request.Parsed
    { items = List.length items;
      concepts = count (function Lang.Iconcept _ -> true | _ -> false);
      models = count (function Lang.Imodel _ -> true | _ -> false) }

let handle_parse t ~caching ~budget ~source =
  match parsed_defs t ~caching ~budget source with
  | d, hit ->
    t.cached <- hit;
    if caching then begin
      if d.parsed == Request.no_entry then
        d.parsed <- Request.entry (parsed d.items);
      t.entry <- d.parsed;
      d.parsed.Request.e_result
    end
    else Ok (parsed d.items)
  | exception Lang.Parse_error { line; col; message } ->
    err Request.Parse_failure (Printf.sprintf ".gpc:%d:%d: %s" line col message)

let handle_lint t ~caching ~budget ~source =
  let open Gp_stllint in
  let e = lookup ~caching t.caches.lint source in
  match
    if e != Request.no_entry then served t e
    else begin
      let program = Parser.parse_program source in
      Budget.spend budget (List.length program);
      let ds = Interp.check program in
      answer ~caching t.caches.lint source
        (Request.Linted
           { errors = List.length (Interp.errors ds);
             warnings = List.length (Interp.warnings ds);
             suggestions = List.length (Interp.suggestions ds);
             messages =
               List.map (fun d -> Fmt.str "%a" Interp.pp_diagnostic d) ds })
    end
  with
  | Ok (Request.Linted { messages; _ }) as result ->
    (* one diagnostic per message, so the budget charge is unchanged *)
    Budget.spend budget (1 + List.length messages);
    result
  | _ -> assert false (* the lint cache only ever stores [Linted] *)
  | exception Parser.Parse_error { line; message; _ } ->
    err Request.Parse_failure (Printf.sprintf "program:%d: %s" line message)

(* Cache keys are built straight into the dispatcher's one scratch
   buffer: no Format, no digest, no intermediate strings, so a key
   allocates only itself. Handlers never nest and a key is complete
   before its value is computed, so one buffer serves them all. A key
   encodes its content structurally, with every name length-prefixed,
   so keys are equal exactly when contents are. *)
let key_buf t =
  Buffer.clear t.key_buf;
  t.key_buf

let add_name buf s =
  Json.add_int buf (String.length s);
  Buffer.add_char buf ':';
  Buffer.add_string buf s

(* The expression text decides the parse, so the text and the mode make
   the key and a hit needs no parse. *)
let optimize_key t ~certified_only expr =
  let buf = key_buf t in
  Buffer.add_char buf (if certified_only then 'T' else 'F');
  Buffer.add_string buf expr;
  Buffer.contents buf

let handle_optimize t ~caching ~budget ~expr ~certified_only =
  let open Gp_simplicissimus in
  let key = optimize_key t ~certified_only expr in
  (* Only a parsed expression ever fills a rewrites entry, so a cached
     key needs no parse: parse on a miss only. *)
  match
    if caching && Lru.mem t.caches.rewrites key then None
    else Some (Sparser.parse expr)
  with
  | exception Sparser.Parse_error { line; col; message } ->
    err Request.Parse_failure (Printf.sprintf "expr:%d:%d: %s" line col message)
  | parsed -> (
    (* Certification is the expensive stage; a certified-only rewrite
       runs on the rules the certifications prove. *)
    let certs, cert_hit = certifications t ~caching ~budget in
    let e = lookup ~caching t.caches.rewrites key in
    match
      if e != Request.no_entry then served t e
      else begin
        let e =
          match parsed with
          | Some e -> e
          | None -> assert false (* probed present above *)
        in
        let rules =
          if certified_only then Certify.certified certs t.rules else t.rules
        in
        let r = Engine.rewrite ~rules ~insts:t.insts e in
        answer ~caching t.caches.rewrites key
          (Request.Optimized
             { output = Expr.to_string r.Engine.output;
               steps = List.length r.Engine.steps;
               ops_before = r.Engine.ops_before;
               ops_after = r.Engine.ops_after })
      end
    with
    | Ok (Request.Optimized { steps; _ }) as result ->
      Budget.spend budget (1 + steps);
      t.cached <- t.cached && cert_hit;
      result
    | _ -> assert false (* the rewrites cache only ever stores [Optimized] *)
    | exception Engine.Did_not_terminate _ ->
      err Request.Over_budget "rewriting exceeded its step budget")

(* A theory's instances from the one proof catalogue, narrowed to
   [instance] when one is named: only the instances asked for are
   built. *)
let prove_plan theory instance =
  let open Gp_athena in
  match List.assoc_opt theory Theorems.catalogue with
  | None -> Error ("unknown theory " ^ theory)
  | Some instances -> (
    match instance with
    | None -> Ok (Theorems.build_all instances)
    | Some name -> (
      match List.assoc_opt name instances with
      | None ->
        Error
          (Printf.sprintf "theory %s has no instance %s (have: %s)" theory
             name
             (String.concat ", " (List.map fst instances)))
      | Some build ->
        let axioms, theorems = build () in
        Ok [ (name, axioms, theorems) ]))

let handle_prove t ~caching ~budget ~theory ~instance =
  let open Gp_athena in
  let key =
    let buf = key_buf t in
    Buffer.add_string buf "prove|";
    add_name buf theory;
    (match instance with
    | None -> Buffer.add_char buf '*'
    | Some name ->
      Buffer.add_char buf '=';
      add_name buf name);
    Buffer.contents buf
  in
  (* Only a valid plan ever fills a proofs entry, so a cached key needs
     neither the plan nor its name checks: build it on a miss only. *)
  let plan =
    if caching && Lru.mem t.caches.proofs key then Ok []
    else prove_plan theory instance
  in
  match plan with
  | Error detail -> err Request.Unknown_name detail
  | Ok plan ->
    let e = lookup ~caching t.caches.proofs key in
    let result =
      if e != Request.no_entry then served t e
      else begin
        let verdicts =
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
            plan
        in
        let failed =
          List.length (List.filter (fun (_, ok) -> not ok) verdicts)
        in
        answer ~caching t.caches.proofs key
          (Request.Proved { checked = List.length verdicts; failed })
      end
    in
    Budget.spend budget 1;
    result

let handle_closure t ~caching ~budget ~concept ~types =
  match Registry.find_concept t.registry concept with
  | None -> err Request.Unknown_name ("unknown concept " ^ concept)
  | Some con when List.length con.Concept.params <> List.length types ->
    err Request.Bad_request
      (Fmt.str "%a" Check.pp_failure
         (Check.Arity_mismatch
            { concept;
              expected = List.length con.Concept.params;
              got = List.length types }))
  | Some _ ->
    let args = List.map (fun ty -> Ctype.Named ty) types in
    let key =
      let buf = key_buf t in
      Propagate.add_request_key buf t.registry concept args;
      Buffer.contents buf
    in
    let e = lookup ~caching t.caches.closures key in
    if e != Request.no_entry then begin
      Budget.spend budget 1;
      served t e
    end
    else begin
      (* one rendered string per obligation, so lengths — and therefore
         the budget charge — match the unrendered closure exactly *)
      let obligations =
        List.map
          (fun ob -> Fmt.str "%a" Propagate.pp_obligation ob)
          (Propagate.closure t.registry concept args)
      in
      let result =
        answer ~caching t.caches.closures key
          (Request.Closed { size = List.length obligations; obligations })
      in
      Budget.spend budget (1 + List.length obligations);
      result
    end

(* Structure-aware numerics: a miss is Select.miss — regenerate the
   matrix from the request's (structure, n, seed) triple in its packed
   storage, classify it, and let concept-guided overload resolution pick
   the kernel. The exact kernel step count is
   the budget charge, levied after the cache probe on hit and miss alike
   — like the optimizer's rewrite steps — so Over_budget outcomes are
   cache-independent, which deterministic replay requires. *)

let max_numeric_n = 256

let handle_numeric t ~caching ~budget ~op ~structure ~n ~seed =
  let open Gp_structla in
  if not (Mat.known_structure structure) then
    err Request.Unknown_name
      (Printf.sprintf "unknown structure %S (have: %s)" structure
         (String.concat ", " Mat.structure_names))
  else if n < 1 || n > max_numeric_n then
    err Request.Bad_request
      (Printf.sprintf "n=%d outside 1..%d" n max_numeric_n)
  else begin
    let key =
      let buf = key_buf t in
      Buffer.add_string buf "num|";
      Buffer.add_string buf (Select.op_name op);
      Buffer.add_char buf '|';
      add_name buf structure;
      Json.add_int buf n;
      Buffer.add_char buf '|';
      Json.add_int buf seed;
      Buffer.contents buf
    in
    let e = lookup ~caching t.caches.numerics key in
    let result =
      if e != Request.no_entry then served t e
      else
        match Select.miss t.registry t.select ~op ~structure ~n ~seed with
        | Ok m ->
          answer ~caching t.caches.numerics key
            (Request.Computed
               { kernel = m.Select.ms_kernel;
                 detected = m.Select.ms_detected;
                 n;
                 steps = m.Select.ms_steps;
                 checksum = m.Select.ms_checksum })
        | Error diag ->
          (* every carrier has a dense fallback for all three generics,
             so a resolution failure here is a dispatcher bug: escape
             and let the server report Internal *)
          failwith diag
    in
    (match result with
    | Ok (Request.Computed { steps; _ }) -> Budget.spend budget (1 + steps)
    | _ -> Budget.spend budget 1);
    result
  end

let handle t ~caching ~budget (req : Request.t) =
  t.cached <- false;
  t.entry <- Request.no_entry;
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
