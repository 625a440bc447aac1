(* Tests for the serving layer: LRU memo caches, budgets, the wire
   codec, the robustness corpus (malformed input never kills the
   server), cache transparency, workload determinism, and the
   propagation-closure refactor that makes closures memoisable. *)

open Gp_service

let qtest = QCheck_alcotest.to_alcotest

let declare_standard = Gp_standard.Standard.declare

let mkserver ?config () = Server.create ?config ~declare_standard ()

let code_name rsp =
  match rsp.Request.rsp_result with
  | Ok _ -> "ok"
  | Error e -> Request.error_code_name e.Request.code

let check_code name expected rsp =
  Alcotest.(check string) name (Request.error_code_name expected) (code_name rsp)

(* A request cheap enough to fit even a 10-step budget. *)
let good_request = Request.Parse { source = "type smoke_t { }\n" }

let assert_alive server =
  Alcotest.(check bool) "server still serves" true
    (Request.ok (Server.handle server good_request))

let contains s sub =
  let ls = String.length s and lb = String.length sub in
  let rec go i = i + lb <= ls && (String.sub s i lb = sub || go (i + 1)) in
  lb = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Lru                                                                 *)
(* ------------------------------------------------------------------ *)

let test_lru_basic () =
  let c = Lru.create ~capacity:2 "t" in
  Alcotest.(check (option int)) "miss" None (Lru.find c "a");
  Lru.add c "a" 1;
  Alcotest.(check (option int)) "hit" (Some 1) (Lru.find c "a");
  Lru.add c "b" 2;
  Lru.add c "c" 3;
  (* a was MRU after the hit, then b, c arrived: a is the LRU victim *)
  Alcotest.(check (option int)) "evicted" None (Lru.find c "a");
  Alcotest.(check (option int)) "survivor" (Some 3) (Lru.find c "c");
  let s = Lru.stats c in
  Alcotest.(check int) "hits" 2 s.Lru.st_hits;
  Alcotest.(check int) "misses" 2 s.Lru.st_misses;
  Alcotest.(check int) "evictions" 1 s.Lru.st_evictions;
  Alcotest.(check int) "size" 2 s.Lru.st_size;
  Lru.add c "b" 20;
  Alcotest.(check (option int)) "replace keeps size" (Some 20) (Lru.find c "b");
  Alcotest.(check int) "no growth on replace" 2 (Lru.size c)

let test_lru_recency () =
  let c = Lru.create ~capacity:3 "t" in
  Lru.add c "a" 1;
  Lru.add c "b" 2;
  Lru.add c "c" 3;
  Alcotest.(check (list string)) "mru first" [ "c"; "b"; "a" ]
    (Lru.keys_mru_first c);
  ignore (Lru.find c "a");
  Alcotest.(check (list string)) "hit refreshes" [ "a"; "c"; "b" ]
    (Lru.keys_mru_first c);
  Alcotest.(check bool) "mem is pure" true (Lru.mem c "b");
  Alcotest.(check (list string)) "mem does not refresh" [ "a"; "c"; "b" ]
    (Lru.keys_mru_first c);
  Lru.add c "d" 4;
  Alcotest.(check (list string)) "evicts the lru" [ "d"; "a"; "c" ]
    (Lru.keys_mru_first c)

let test_lru_find_or_compute () =
  let c = Lru.create ~capacity:4 "t" in
  let calls = ref 0 in
  let f () = incr calls; 42 in
  let v, hit = Lru.find_or_compute c ~enabled:true "k" f in
  Alcotest.(check int) "computed" 42 v;
  Alcotest.(check bool) "first is a miss" false hit;
  let v, hit = Lru.find_or_compute c ~enabled:true "k" f in
  Alcotest.(check int) "memoised" 42 v;
  Alcotest.(check bool) "second is a hit" true hit;
  Alcotest.(check int) "computed once" 1 !calls;
  (* disabled: total bypass — no entries, no stats *)
  let c2 = Lru.create ~capacity:4 "t2" in
  let _ = Lru.find_or_compute c2 ~enabled:false "k" f in
  let _ = Lru.find_or_compute c2 ~enabled:false "k" f in
  Alcotest.(check int) "recomputed each time" 3 !calls;
  let s = Lru.stats c2 in
  Alcotest.(check int) "bypass: no hits" 0 s.Lru.st_hits;
  Alcotest.(check int) "bypass: no misses" 0 s.Lru.st_misses;
  Alcotest.(check int) "bypass: empty" 0 s.Lru.st_size

let test_lru_invalid_capacity () =
  match Lru.create ~capacity:0 "bad" with
  | _ -> Alcotest.fail "capacity 0 must be rejected"
  | exception Invalid_argument _ -> ()

(* The recency contract, against a reference model: an assoc list kept
   in MRU order, truncated to capacity. *)
let lru_model_prop =
  QCheck.Test.make ~name:"lru matches the reference model" ~count:300
    QCheck.(pair (int_range 1 5) (small_list (pair bool (int_range 0 8))))
    (fun (cap, ops) ->
      let c = Lru.create ~capacity:cap "model" in
      let model = ref [] in
      List.iter
        (fun (is_add, k) ->
          let key = string_of_int k in
          if is_add then begin
            Lru.add c key k;
            model := (key, k) :: List.remove_assoc key !model;
            if List.length !model > cap then
              model := List.filteri (fun i _ -> i < cap) !model
          end
          else begin
            let expect = List.assoc_opt key !model in
            let got = Lru.find c key in
            if got <> expect then
              QCheck.Test.fail_reportf "find %S: got %s, model says %s" key
                (match got with Some v -> string_of_int v | None -> "none")
                (match expect with Some v -> string_of_int v | None -> "none");
            match expect with
            | Some v -> model := (key, v) :: List.remove_assoc key !model
            | None -> ()
          end)
        ops;
      Lru.keys_mru_first c = List.map fst !model)

(* ------------------------------------------------------------------ *)
(* Budget                                                              *)
(* ------------------------------------------------------------------ *)

let test_budget_steps () =
  let b = Budget.create ~max_steps:10 ~now:(fun () -> 0.0) () in
  Budget.spend b 4;
  Budget.spend b 6;
  Alcotest.(check int) "used" 10 (Budget.used b);
  Alcotest.(check int) "remaining" 0 (Budget.remaining b);
  Alcotest.check_raises "11th step trips"
    (Budget.Exhausted Budget.Steps)
    (fun () -> Budget.spend b 1)

let test_budget_unlimited () =
  let b = Budget.create ~now:(fun () -> 0.0) () in
  Budget.spend b 1_000_000;
  Alcotest.(check int) "used tracks anyway" 1_000_000 (Budget.used b)

let test_budget_deadline () =
  let clock = ref 0.0 in
  let b = Budget.create ~deadline:5.0 ~now:(fun () -> !clock) () in
  Budget.spend b 1;
  Budget.check_deadline b;
  clock := 6.0;
  Alcotest.check_raises "spend checks the clock"
    (Budget.Exhausted Budget.Deadline)
    (fun () -> Budget.spend b 1);
  Alcotest.check_raises "explicit check too"
    (Budget.Exhausted Budget.Deadline)
    (fun () -> Budget.check_deadline b)

(* ------------------------------------------------------------------ *)
(* Wire                                                                *)
(* ------------------------------------------------------------------ *)

let test_wire_json_roundtrip () =
  let v =
    Wire.Obj
      [ ("a", Wire.Arr [ Wire.Int 1; Wire.Float 2.5; Wire.Null ]);
        ("s", Wire.Str "a\"b\\c\nd\ttab");
        ("t", Wire.Bool true); ("f", Wire.Bool false) ]
  in
  Alcotest.(check bool) "parse inverts to_string" true
    (Wire.parse (Wire.to_string v) = v);
  Alcotest.(check bool) "unicode escape" true
    (Wire.parse "\"\\u0041\"" = Wire.Str "A")

let request_samples =
  [ Request.Check
      { concept = "Container"; types = [ "vector<int>" ]; nominal = false;
        defs = None };
    Request.Check
      { concept = "W1"; types = [ "w1" ]; nominal = true;
        defs = Some "concept W1<T> { }\n" };
    Request.Parse { source = "type t { }\n" };
    Request.Lint { source = "{ int x; }" };
    Request.Optimize { expr = "x * 1 + 0"; certified_only = true };
    Request.Prove { theory = "group"; instance = Some "int[+]" };
    Request.Prove { theory = "swo"; instance = None };
    Request.Closure { concept = "IncidenceGraph"; types = [ "adjacency_list" ] };
    Request.Matvec { structure = "diagonal"; n = 32; seed = 1 };
    Request.Matmul { structure = "banded"; n = 16; seed = 0 };
    Request.Solve { structure = "triangular"; n = 24; seed = 3 }
  ]

let test_wire_request_roundtrip () =
  List.iter
    (fun r ->
      let line = Wire.request_to_line ~id:7 r in
      match Wire.request_of_line line with
      | Ok (Some 7, r') ->
        Alcotest.(check bool) ("roundtrip: " ^ Request.key r) true (r = r')
      | Ok (_, _) -> Alcotest.failf "id lost on %s" (Request.key r)
      | Error e -> Alcotest.failf "%s failed to decode: %s" (Request.key r) e)
    request_samples;
  match Wire.request_of_line (Wire.request_to_line (List.hd request_samples)) with
  | Ok (None, _) -> ()
  | Ok (Some _, _) -> Alcotest.fail "id invented from nowhere"
  | Error e -> Alcotest.fail e

let test_wire_bad_lines () =
  let expect_err line =
    match Wire.request_of_line line with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "line %S should not decode" line
  in
  List.iter expect_err
    [ "{"; "[1,2]"; "null"; {|{"kind":"frobnicate"}|}; {|{"kind":42}|};
      {|{"kind":"check"}|}; {|{"kind":"prove"}|}; {|{"id":"x","kind":"lint"}|} ]

let test_wire_response_encodes () =
  let server = mkserver () in
  let rsp = Server.handle server good_request in
  match Wire.parse (Wire.response_to_line rsp) with
  | Wire.Obj fields ->
    Alcotest.(check bool) "has status" true (List.mem_assoc "status" fields);
    Alcotest.(check bool) "has id" true (List.mem_assoc "id" fields)
  | _ -> Alcotest.fail "response line is not an object"

(* Hardening: duplicate keys and trailing garbage are rejected with the
   exact positioned messages below — pinned so the direct parser and the
   AST oracle can never drift apart silently. *)
let test_wire_hardening () =
  let expect_parse_error src msg =
    match Wire.parse src with
    | exception Wire.Error m -> Alcotest.(check string) src msg m
    | _ -> Alcotest.failf "%S should not parse" src
  in
  expect_parse_error {|{"a":1,"a":2}|} {|at 7: duplicate key "a" in object|};
  expect_parse_error {|{"a":1} x|} "at 8: trailing x after value";
  expect_parse_error {|[1,2]]|} "at 5: trailing ] after value";
  (* truncation: the end of input is a position like any other *)
  expect_parse_error "" "at 0: unexpected end of input";
  expect_parse_error {|{"a":|} "at 5: unexpected end of input";
  expect_parse_error {|[1,|} "at 3: unexpected end of input";
  expect_parse_error {|"abc|} "at 4: unterminated string";
  expect_parse_error {|"a\|} "at 3: unterminated escape";
  expect_parse_error {|"\u12|} "at 3: truncated \\u escape";
  let expect_line_error line msg =
    match Wire.request_of_line line with
    | Error m -> Alcotest.(check string) line msg m
    | Ok _ -> Alcotest.failf "line %S should not decode" line
  in
  expect_line_error {|{"kind":"parse","kind":"lint","source":"s"}|}
    {|bad request line: at 16: duplicate key "kind" in object|};
  expect_line_error {|{"kind":"parse","source":"s"}!|}
    "bad request line: at 29: trailing ! after value";
  expect_line_error {|{"kind":"lint"}|} {|bad request: missing field "source"|};
  (* trailing whitespace is not garbage *)
  match Wire.request_of_line ({|{"kind":"parse","source":"s"}|} ^ "  ") with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "trailing blanks rejected: %s" m

(* The direct cursor parser and the AST oracle must agree byte-for-byte
   on every outcome — acceptances and rejection messages alike. *)
let test_wire_parser_agreement () =
  let corpus =
    [ "{"; "[1,2]"; "null"; "true"; "42"; {|"str"|};
      {|{"kind":"frobnicate"}|}; {|{"kind":42}|}; {|{"kind":"check"}|};
      {|{"kind":"check","concept":"C"}|};
      {|{"kind":"check","concept":"C","types":"not-a-list"}|};
      {|{"kind":"check","concept":"C","types":[1]}|};
      {|{"kind":"prove"}|}; {|{"id":"x","kind":"lint","source":"s"}|};
      {|{"kind":"parse","kind":"lint","source":"s"}|};
      {|{"kind":"parse","source":"s"}!|};
      {|{"kind":"parse","source":"s"}   |};
      {|{"kind":|}; {|{"kind":"pa|}; {|{"kind":"parse","source":["s",|};
      {|{"kind":"optimize","expr":"x","certified_only":"yes"}|};
      {|{"kind":"matvec","structure":"diagonal","n":"big","seed":0}|};
      {|{"kind":"solve","structure":"banded","n":8,"seed":1}|} ]
  in
  let show = function
    | Ok (id, r) ->
      Printf.sprintf "Ok %s %s"
        (match id with Some i -> string_of_int i | None -> "-")
        (Request.key r)
    | Error m -> "Error " ^ m
  in
  List.iter
    (fun line ->
      Alcotest.(check string) line
        (show (Wire.request_of_line_ast line))
        (show (Wire.request_of_line line)))
    corpus

(* Generators for the wire qcheck properties: strings lean printable but
   include quotes, backslashes, control bytes and high bytes so the
   escape paths of both parsers get exercised. *)
let gen_request =
  let open QCheck.Gen in
  let byte lo hi = map Char.chr (int_range lo hi) in
  let wild_char =
    frequency
      [ (8, byte 97 122);
        (2, oneofl [ '"'; '\\'; '\n'; '\t'; '\r'; ' '; '{'; '}'; ':' ]);
        (1, byte 0 31); (1, byte 128 255) ]
  in
  let str = string_size ~gen:wild_char (int_bound 12) in
  let strs = list_size (int_bound 3) str in
  let numeric mk =
    map
      (fun ((structure, n), seed) -> mk structure n seed)
      (pair (pair str (int_range (-4) 64)) (int_range (-3) 1000))
  in
  oneof
    [ map
        (fun ((concept, types), (nominal, defs)) ->
          Request.Check { concept; types; nominal; defs })
        (pair (pair str strs) (pair bool (opt str)));
      map (fun source -> Request.Parse { source }) str;
      map (fun source -> Request.Lint { source }) str;
      map2
        (fun expr certified_only -> Request.Optimize { expr; certified_only })
        str bool;
      map2
        (fun theory instance -> Request.Prove { theory; instance })
        str (opt str);
      map2 (fun concept types -> Request.Closure { concept; types }) str strs;
      numeric (fun structure n seed -> Request.Matvec { structure; n; seed });
      numeric (fun structure n seed -> Request.Matmul { structure; n; seed });
      numeric (fun structure n seed -> Request.Solve { structure; n; seed }) ]

let wire_roundtrip_prop =
  QCheck.Test.make ~name:"parse (render r) = r for both parsers" ~count:500
    (QCheck.make
       ~print:(fun (id, r) -> Wire.request_to_line ?id r)
       QCheck.Gen.(pair (opt small_nat) gen_request))
    (fun (id, r) ->
      let line = Wire.request_to_line ?id r in
      match (Wire.request_of_line line, Wire.request_of_line_ast line) with
      | Ok (id1, r1), Ok (id2, r2) ->
        if not (id1 = id && r1 = r) then
          QCheck.Test.fail_reportf "direct parse drifted on %s" line;
        if not (id2 = id && r2 = r) then
          QCheck.Test.fail_reportf "ast parse drifted on %s" line;
        true
      | Error m, _ -> QCheck.Test.fail_reportf "direct rejected %s: %s" line m
      | _, Error m -> QCheck.Test.fail_reportf "ast rejected %s: %s" line m)

let gen_response =
  let open QCheck.Gen in
  let byte lo hi = map Char.chr (int_range lo hi) in
  let wild_char =
    frequency
      [ (8, byte 97 122);
        (2, oneofl [ '"'; '\\'; '\n'; '\t'; '\r'; ' ' ]);
        (1, byte 0 31); (1, byte 128 255) ]
  in
  let str = string_size ~gen:wild_char (int_bound 12) in
  let strs = list_size (int_bound 3) str in
  let payload =
    oneof
      [ map
          (fun ((ok, failures), (warnings, report)) ->
            Request.Checked { ok; failures; warnings; report })
          (pair (pair bool small_nat) (pair small_nat str));
        map
          (fun ((items, concepts), models) ->
            Request.Parsed { items; concepts; models })
          (pair (pair small_nat small_nat) small_nat);
        map
          (fun ((errors, warnings), (suggestions, messages)) ->
            Request.Linted { errors; warnings; suggestions; messages })
          (pair (pair small_nat small_nat) (pair small_nat strs));
        map
          (fun ((output, steps), (ops_before, ops_after)) ->
            Request.Optimized { output; steps; ops_before; ops_after })
          (pair (pair str small_nat) (pair small_nat small_nat));
        map2 (fun checked failed -> Request.Proved { checked; failed })
          small_nat small_nat;
        map2
          (fun size obligations -> Request.Closed { size; obligations })
          small_nat strs;
        map
          (fun (((kernel, detected), (n, steps)), checksum) ->
            Request.Computed { kernel; detected; n; steps; checksum })
          (pair (pair (pair str str) (pair small_nat small_nat)) str) ]
  in
  let error =
    map2
      (fun code detail -> { Request.code; detail })
      (oneofl
         Request.[ Bad_request; Parse_failure; Unknown_name; Over_budget;
                   Timeout; Queue_full; Internal ])
      str
  in
  let result =
    frequency [ (3, map Result.ok payload); (1, map Result.error error) ]
  in
  map
    (fun (((id, kind), result), (cached, steps)) ->
      { Request.rsp_id = id; rsp_kind = kind; rsp_result = result;
        rsp_cached = cached; rsp_steps = steps })
    (pair
       (pair (pair small_nat (opt (oneofl Request.all_kinds))) result)
       (pair bool small_nat))

(* Streaming digest ≡ materialize-then-digest, the renderer ≡ its AST
   oracle, and the fingerprint ignores provenance (id, cache-hit flag,
   step count) exactly as [result_equal] does. *)
let wire_response_stream_prop =
  QCheck.Test.make
    ~name:"streaming fingerprint and renderer match the materialized forms"
    ~count:500
    (QCheck.make
       ~print:(fun r -> Request.response_canonical r)
       gen_response)
    (fun r ->
      let canonical = Request.response_canonical r in
      if
        Request.response_fingerprint r
        <> Digest.to_hex (Digest.string canonical)
      then QCheck.Test.fail_reportf "streaming digest diverged on %s" canonical;
      if Wire.response_to_line r <> Wire.response_to_line_ast r then
        QCheck.Test.fail_reportf "renderers diverged on %s" canonical;
      let stripped =
        { r with
          Request.rsp_id = r.Request.rsp_id + 17;
          rsp_cached = not r.Request.rsp_cached;
          rsp_steps = r.Request.rsp_steps + 5 }
      in
      if
        Request.response_fingerprint stripped
        <> Request.response_fingerprint r
      then
        QCheck.Test.fail_reportf "fingerprint leaks provenance on %s" canonical;
      true)

(* ------------------------------------------------------------------ *)
(* Robustness: the malformed-request corpus                            *)
(* ------------------------------------------------------------------ *)

(* One long-lived server takes the whole corpus; after every abuse it
   must still serve a good request. *)
let test_malformed_corpus () =
  let server = mkserver () in
  (match Server.serve_line server "{ not json" with
  | Some rsp ->
    check_code "garbage line" Request.Bad_request rsp;
    Alcotest.(check bool) "no kind on a garbage line" true
      (rsp.Request.rsp_kind = None)
  | None -> Alcotest.fail "garbage line must get a response");
  assert_alive server;
  (match Server.serve_line server {|{"kind":"frobnicate"}|} with
  | Some rsp -> check_code "unknown kind" Request.Bad_request rsp
  | None -> Alcotest.fail "unknown kind must get a response");
  Alcotest.(check bool) "blank line skipped" true
    (Server.serve_line server "   " = None);
  check_code "bad .gpc" Request.Parse_failure
    (Server.handle server (Request.Parse { source = "concept ??? {" }));
  assert_alive server;
  check_code "bad sandbox defs" Request.Parse_failure
    (Server.handle server
       (Request.Check
          { concept = "C"; types = [ "t" ]; nominal = false;
            defs = Some "concept ??? {" }));
  check_code "unparseable lint program" Request.Parse_failure
    (Server.handle server (Request.Lint { source = "int x = @@garbage;;" }));
  check_code "bad optimize expr" Request.Parse_failure
    (Server.handle server
       (Request.Optimize { expr = "x * * 1"; certified_only = false }));
  check_code "unknown concept" Request.Unknown_name
    (Server.handle server
       (Request.Closure { concept = "NoSuchConcept"; types = [ "int" ] }));
  check_code "unknown theory" Request.Unknown_name
    (Server.handle server (Request.Prove { theory = "astrology"; instance = None }));
  check_code "unknown instance" Request.Unknown_name
    (Server.handle server
       (Request.Prove { theory = "group"; instance = Some "quaternion[?]" }));
  assert_alive server

(* gp serve --stats-json ships GC counter totals next to the request
   metrics, so a stats scrape shows allocation trends. *)
let test_report_json_gc () =
  let server = mkserver () in
  ignore (Server.handle server good_request);
  let report = Server.report_json server in
  Alcotest.(check bool) "report has a gc object" true
    (contains report {|"gc"|});
  Alcotest.(check bool) "gc object has minor_words" true
    (contains report {|"minor_words"|});
  match Wire.parse report with
  | Wire.Obj fields -> (
    match List.assoc_opt "gc" fields with
    | Some (Wire.Obj gc) ->
      Alcotest.(check bool) "allocated_bytes present" true
        (List.mem_assoc "allocated_bytes" gc)
    | _ -> Alcotest.fail "\"gc\" is not an object")
  | _ -> Alcotest.fail "report_json is not an object"

let test_over_budget () =
  let config =
    { Server.default_config with max_steps = 10; caching = false }
  in
  let server = mkserver ~config () in
  (* proof checking charges 25 steps per theorem: deterministic trip *)
  check_code "prove trips the step budget" Request.Over_budget
    (Server.handle server (Request.Prove { theory = "swo"; instance = None }));
  assert_alive server

let test_timeout () =
  let clock = ref 0.0 in
  let ticking = ref true in
  let now () =
    if !ticking then clock := !clock +. 1.0;
    !clock
  in
  let config =
    { Server.default_config with timeout = Some 0.5; caching = false; now }
  in
  let server = mkserver ~config () in
  check_code "fake clock trips the deadline" Request.Timeout
    (Server.handle server
       (Request.Prove { theory = "swo"; instance = Some "int_lt" }));
  (* freeze the clock: the same server recovers *)
  ticking := false;
  assert_alive server

let test_queue_full () =
  let config = { Server.default_config with queue_capacity = 2 } in
  let server = mkserver ~config () in
  let rsps = Server.process_burst server (List.init 5 (fun _ -> good_request)) in
  Alcotest.(check int) "every request answered" 5 (List.length rsps);
  Alcotest.(check int) "queue capacity admitted" 2
    (List.length (List.filter Request.ok rsps));
  List.iteri
    (fun i rsp ->
      if i >= 2 then
        check_code (Printf.sprintf "overflow %d rejected" i) Request.Queue_full
          rsp)
    rsps;
  (* the steady-state driver drains instead of dropping *)
  let rsps = Server.process server (List.init 7 (fun _ -> good_request)) in
  Alcotest.(check int) "process serves everything" 7
    (List.length (List.filter Request.ok rsps));
  assert_alive server

(* The steady-state driver admits each request exactly once: with more
   requests than queue slots, the server counts one request per
   response, hands out ids 1..n without gaps, and records no Queue_full
   error that no client ever saw. *)
let test_process_accounting () =
  let config = { Server.default_config with queue_capacity = 4 } in
  let server = mkserver ~config () in
  let n = 30 in
  let rsps = Server.process server (Workload.generate ~seed:5 ~n ()) in
  Alcotest.(check int) "one response per request" n (List.length rsps);
  Alcotest.(check int) "requests counted = responses produced"
    (List.length rsps)
    (Metrics.requests (Server.metrics server));
  Alcotest.(check (list int)) "ids run 1..n without gaps"
    (List.init n (fun i -> i + 1))
    (List.map (fun r -> r.Request.rsp_id) rsps);
  let queue_full =
    List.fold_left
      (fun acc (labels, v) ->
        if List.assoc_opt "code" labels = Some "queue-full" then acc +. v
        else acc)
      0.0
      (Gp_telemetry.Metrics.counter_series
         (Metrics.registry (Server.metrics server))
         "gp_request_errors_total")
  in
  Alcotest.(check (float 0.0)) "no Queue_full errors recorded" 0.0 queue_full

let test_metrics_accounting () =
  let server = mkserver () in
  ignore (Server.handle server good_request);
  ignore (Server.handle server good_request);
  ignore
    (Server.handle server (Request.Prove { theory = "astrology"; instance = None }));
  Alcotest.(check int) "requests counted" 3 (Metrics.requests (Server.metrics server));
  Alcotest.(check int) "errors counted" 1 (Metrics.errors (Server.metrics server));
  let report = Server.report server in
  Alcotest.(check bool) "report names the kind" true (contains report "parse");
  Alcotest.(check bool) "report names the error code" true
    (contains report "unknown-name");
  Alcotest.(check bool) "report includes cache tables" true
    (contains report "caches")

(* ------------------------------------------------------------------ *)
(* Cache transparency                                                  *)
(* ------------------------------------------------------------------ *)

(* Caching must be observationally invisible: the same stream against a
   caching server (twice — the second pass is all-warm), and against a
   cache-free server, yields result-equal responses. *)
let transparency_prop =
  QCheck.Test.make ~name:"caching on = caching off = warm replay" ~count:10
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let reqs = Workload.generate ~seed ~n:25 () in
      let cached = mkserver () in
      let plain =
        mkserver ~config:{ Server.default_config with caching = false } ()
      in
      let cold = List.map (Server.handle cached) reqs in
      let warm = List.map (Server.handle cached) reqs in
      let direct = List.map (Server.handle plain) reqs in
      List.exists (fun r -> r.Request.rsp_cached) warm
      && List.for_all2 Request.result_equal cold warm
      && List.for_all2 Request.result_equal cold direct)

(* The service answers exactly what the libraries answer directly. *)
let test_direct_library_equivalence () =
  let server = mkserver () in
  let reg = Gp_standard.Standard.registry () in
  List.iter
    (fun (concept, types) ->
      let rsp = Server.handle server (Request.Closure { concept; types }) in
      let args = List.map (fun x -> Gp_concepts.Ctype.Named x) types in
      let direct = Gp_concepts.Propagate.closure reg concept args in
      match rsp.Request.rsp_result with
      | Ok (Request.Closed { size; obligations }) ->
        Alcotest.(check int) (concept ^ ": closure size") (List.length direct)
          size;
        Alcotest.(check int) (concept ^ ": obligations listed") size
          (List.length obligations)
      | _ -> Alcotest.failf "closure %s did not succeed" concept)
    [ ("IncidenceGraph", [ "adjacency_list" ]);
      ("Container", [ "vector<int>" ]) ];
  let source =
    Gp_stllint.Render.to_source
      (Gp_stllint.Corpus.generate ~blocks:2 ~buggy_every:2)
  in
  let direct = Gp_stllint.Interp.check (Gp_stllint.Parser.parse_program source) in
  (match (Server.handle server (Request.Lint { source })).Request.rsp_result with
  | Ok (Request.Linted { errors; warnings; suggestions; messages }) ->
    Alcotest.(check int) "lint errors"
      (List.length (Gp_stllint.Interp.errors direct))
      errors;
    Alcotest.(check int) "lint warnings"
      (List.length (Gp_stllint.Interp.warnings direct))
      warnings;
    Alcotest.(check int) "lint suggestions"
      (List.length (Gp_stllint.Interp.suggestions direct))
      suggestions;
    Alcotest.(check int) "every diagnostic rendered" (List.length direct)
      (List.length messages)
  | _ -> Alcotest.fail "lint did not succeed");
  let open Gp_simplicissimus in
  let expr = "x * 1 + 0" in
  let direct =
    Engine.rewrite
      ~rules:(Rules.builtin @ [ Rules.lidia_inverse ])
      ~insts:(Instances.standard ()) (Sparser.parse expr)
  in
  (match
     (Server.handle server (Request.Optimize { expr; certified_only = false }))
       .Request.rsp_result
   with
  | Ok (Request.Optimized { output; ops_before; ops_after; _ }) ->
    Alcotest.(check string) "same normal form"
      (Expr.to_string direct.Engine.output)
      output;
    Alcotest.(check int) "same ops before" direct.Engine.ops_before ops_before;
    Alcotest.(check int) "same ops after" direct.Engine.ops_after ops_after
  | _ -> Alcotest.fail "optimize did not succeed");
  match
    (Server.handle server
       (Request.Prove { theory = "group"; instance = Some "int[+]" }))
      .Request.rsp_result
  with
  | Ok (Request.Proved { checked; failed }) ->
    Alcotest.(check int) "group int[+]: four theorems" 4 checked;
    Alcotest.(check int) "group int[+]: none fail" 0 failed
  | _ -> Alcotest.fail "prove did not succeed"

(* Sandboxed checks fork the shared standard registry: serving many of
   them never displaces the shared registry's index from the registry
   side cache, so the shared registry never pays an index rebuild. *)
let test_sandbox_keeps_shared_index () =
  let server = mkserver () in
  let check ?defs concept types =
    match
      (Server.handle server
         (Request.Check { concept; types; nominal = false; defs }))
        .Request.rsp_result
    with
    | Ok (Request.Checked { ok = true; _ }) -> ()
    | _ -> Alcotest.failf "check %s failed" concept
  in
  (* builds the shared registry's index *)
  check "Container" [ "vector<int>" ];
  Gp_telemetry.Tel.with_installed (fun sink ->
      for k = 1 to 100 do
        check
          ~defs:
            (Printf.sprintf
               "concept W%d<T> { f%d : T -> T; }\ntype w%d { }\n\
                op f%d : w%d -> w%d;\n"
               k k k k k k)
          (Printf.sprintf "W%d" k)
          [ Printf.sprintf "w%d" k ]
      done;
      check "Container" [ "vector<int>" ];
      Alcotest.(check (float 0.0)) "shared index never rebuilt" 0.0
        (Gp_telemetry.Metrics.total sink.Gp_telemetry.Tel.metrics
           "gp_registry_index_rebuilds_total"))

let test_cache_off_reports_zero () =
  let server =
    mkserver ~config:{ Server.default_config with caching = false } ()
  in
  ignore (Server.process server (Workload.generate ~seed:3 ~n:20 ()));
  List.iter
    (fun s ->
      Alcotest.(check int) (s.Lru.st_name ^ ": no hits") 0 s.Lru.st_hits;
      Alcotest.(check int) (s.Lru.st_name ^ ": no misses") 0 s.Lru.st_misses;
      Alcotest.(check int) (s.Lru.st_name ^ ": stays empty") 0 s.Lru.st_size)
    (Server.cache_stats server)

let test_cache_hits_on_replay () =
  let server = mkserver () in
  let reqs = Workload.generate ~seed:3 ~n:20 () in
  ignore (Server.process server reqs);
  let rsps = Server.process server reqs in
  Alcotest.(check bool) "replay is cache-served" true
    (List.exists (fun r -> r.Request.rsp_cached) rsps);
  Alcotest.(check bool) "hit counters populated" true
    (List.exists (fun s -> s.Lru.st_hits > 0) (Server.cache_stats server));
  Server.clear_caches server;
  List.iter
    (fun s -> Alcotest.(check int) (s.Lru.st_name ^ ": cleared") 0 s.Lru.st_size)
    (Server.cache_stats server)

(* ------------------------------------------------------------------ *)
(* Workload                                                            *)
(* ------------------------------------------------------------------ *)

let test_workload_determinism () =
  let a = Workload.generate ~seed:42 ~n:80 () in
  let b = Workload.generate ~seed:42 ~n:80 () in
  let c = Workload.generate ~seed:43 ~n:80 () in
  Alcotest.(check string) "same seed, same fingerprint"
    (Workload.fingerprint a) (Workload.fingerprint b);
  Alcotest.(check bool) "same seed, same requests" true (a = b);
  Alcotest.(check bool) "different seed, different stream" true
    (Workload.fingerprint a <> Workload.fingerprint c)

let workload_pure_prop =
  QCheck.Test.make ~name:"generation is a pure function of the seed" ~count:30
    QCheck.(int_range 0 100_000)
    (fun seed ->
      Workload.generate ~seed ~n:15 () = Workload.generate ~seed ~n:15 ())

let test_workload_mix () =
  (match Workload.parse_mix "check=2,lint=3" with
  | Ok m ->
    Alcotest.(check int) "two components" 2 (List.length m);
    Alcotest.(check bool) "only the mixed kinds" true
      (List.for_all
         (fun r ->
           match Request.kind r with
           | Request.Kcheck | Request.Klint -> true
           | _ -> false)
         (Workload.generate ~mix:m ~seed:1 ~n:50 ()))
  | Error e -> Alcotest.fail e);
  (match Workload.parse_mix "prove=1" with
  | Ok m ->
    Alcotest.(check bool) "single-kind mix" true
      (List.for_all
         (fun r -> Request.kind r = Request.Kprove)
         (Workload.generate ~mix:m ~seed:5 ~n:10 ()))
  | Error e -> Alcotest.fail e);
  let expect_err spec =
    match Workload.parse_mix spec with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "mix %S should be rejected" spec
  in
  List.iter expect_err [ "frobnicate=1"; "check=-2"; "check=0,lint=0"; "" ]

(* The error messages are part of the interface: positions are byte
   offsets into the spec as typed (leading whitespace skipped, the
   weight position lands on the character after the '='). Pinned
   byte-for-byte so a drive-by reformat shows up here, not in a user's
   shell. *)
let test_workload_mix_errors () =
  let pin spec want =
    match Workload.parse_mix spec with
    | Ok _ -> Alcotest.failf "mix %S should be rejected" spec
    | Error e -> Alcotest.(check string) (Printf.sprintf "mix %S" spec) want e
  in
  pin "check=2,bogus=1" "at 8: unknown kind \"bogus\" in mix";
  pin "check=x" "at 6: bad weight \"x\" in \"check=x\" (want a non-negative int)";
  pin "check=-2"
    "at 6: bad weight \"-2\" in \"check=-2\" (want a non-negative int)";
  pin "check" "at 0: bad mix component \"check\" (want kind=weight)";
  pin "check=1, lint=y"
    "at 14: bad weight \"y\" in \"lint=y\" (want a non-negative int)";
  pin "check=0,lint=0" "all-zero mix"

let test_workload_validation () =
  (match Workload.generate ~keyspace:0 ~seed:1 ~n:5 () with
  | _ -> Alcotest.fail "keyspace 0 must be rejected"
  | exception Invalid_argument _ -> ());
  match Workload.generate ~seed:1 ~n:(-1) () with
  | _ -> Alcotest.fail "negative n must be rejected"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* The Propagate refactor and generation-keyed memo safety             *)
(* ------------------------------------------------------------------ *)

let test_propagate_closure_with () =
  let open Gp_concepts in
  let reg = Gp_standard.Standard.registry () in
  List.iter
    (fun (concept, types) ->
      let args = List.map (fun x -> Ctype.Named x) types in
      let via_reg = Propagate.closure reg concept args in
      let via_lookup =
        Propagate.closure_with ~lookup:(Registry.find_concept reg) concept args
      in
      Alcotest.(check int) (concept ^ ": same size") (List.length via_reg)
        (List.length via_lookup);
      Alcotest.(check bool) (concept ^ ": same obligations") true
        (List.for_all2 Propagate.obligation_equal via_reg via_lookup))
    [ ("IncidenceGraph", [ "adjacency_list" ]);
      ("RandomAccessIterator", [ "vector<int>::iterator" ]);
      ("VectorSpace", [ "cvec"; "complex" ]) ]

let test_registry_generation () =
  let open Gp_concepts in
  let reg = Registry.create () in
  let g0 = Registry.generation reg in
  Registry.declare_type reg "gen_probe";
  Alcotest.(check bool) "declaration bumps the generation" true
    (Registry.generation reg > g0);
  let g1 = Registry.generation reg in
  Registry.touch reg;
  Alcotest.(check int) "touch bumps by one" (g1 + 1) (Registry.generation reg)

let test_request_key_tracks_generation () =
  let open Gp_concepts in
  let reg = Gp_standard.Standard.registry () in
  let args = [ Ctype.Named "vector<int>" ] in
  let k1 = Propagate.request_key reg "Container" args in
  Alcotest.(check string) "stable while the registry is unchanged" k1
    (Propagate.request_key reg "Container" args);
  Registry.touch reg;
  Alcotest.(check bool) "any mutation changes the key" true
    (k1 <> Propagate.request_key reg "Container" args)

(* A served closure must track registry mutations: the generation-keyed
   request key prevents the LRU from ever serving an answer computed
   against the old world — which matters doubly now that the registry's
   own lookups go through generation-keyed indexes. *)
let test_closure_tracks_registry_mutation () =
  let open Gp_concepts in
  let server = mkserver () in
  let closure_req name =
    Request.Closure { concept = name; types = [ "int" ] }
  in
  check_code "unknown before declaration" Request.Unknown_name
    (Server.handle server (closure_req "FreshConcept"));
  let reg = Server.registry server in
  Registry.declare_concept reg
    (Concept.make ~params:[ "T" ] "FreshConcept" [ Concept.axiom "t" "true" ]);
  (match
     (Server.handle server (closure_req "FreshConcept")).Request.rsp_result
   with
  | Ok (Request.Closed { size; _ }) ->
    Alcotest.(check int) "closure of a leaf concept" 1 size
  | _ -> Alcotest.fail "closure after declaration should succeed");
  Registry.declare_concept reg
    (Concept.make ~params:[ "T" ]
       ~refines:[ ("FreshConcept", [ Ctype.Var "T" ]) ]
       "FresherConcept"
       [ Concept.axiom "t" "true" ]);
  (match
     (Server.handle server (closure_req "FresherConcept")).Request.rsp_result
   with
  | Ok (Request.Closed { size; _ }) ->
    Alcotest.(check int) "refining closure sees the refined" 2 size
  | _ -> Alcotest.fail "closure of the refining concept should succeed");
  let replay = Server.handle server (closure_req "FresherConcept") in
  Alcotest.(check bool) "replay is served from cache" true
    replay.Request.rsp_cached;
  (* any further declaration bumps the generation: the same request must
     recompute against the current world, not replay the cached answer *)
  Registry.declare_type reg "fresh_probe";
  let after = Server.handle server (closure_req "FresherConcept") in
  Alcotest.(check bool) "mutation invalidates the cached closure" false
    after.Request.rsp_cached;
  (match after.Request.rsp_result with
  | Ok (Request.Closed { size; _ }) ->
    Alcotest.(check int) "recomputed answer is correct" 2 size
  | _ -> Alcotest.fail "recomputed closure should succeed")

(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* Flight recorder + replay                                            *)
(* ------------------------------------------------------------------ *)

module Tel = Gp_telemetry.Tel
module Recorder = Gp_telemetry.Recorder

let test_config_line_roundtrip () =
  let config =
    { Server.default_config with caching = false; cache_capacity = 17;
      queue_capacity = 5; max_steps = 2500; timeout = Some 1.5;
      slow_log = 3; flight_capacity = 99; flight_slowest = 2 }
  in
  (match Server.config_of_line (Server.config_to_line config) with
  | Ok c ->
    Alcotest.(check bool) "caching" false c.Server.caching;
    Alcotest.(check int) "cache_capacity" 17 c.Server.cache_capacity;
    Alcotest.(check int) "queue_capacity" 5 c.Server.queue_capacity;
    Alcotest.(check int) "max_steps" 2500 c.Server.max_steps;
    Alcotest.(check (option (float 1e-9))) "timeout" (Some 1.5)
      c.Server.timeout;
    Alcotest.(check int) "slow_log" 3 c.Server.slow_log;
    Alcotest.(check int) "flight_capacity" 99 c.Server.flight_capacity;
    Alcotest.(check int) "flight_slowest" 2 c.Server.flight_slowest;
    Alcotest.(check string) "fingerprint stable"
      (Server.config_fingerprint config)
      (Server.config_fingerprint c)
  | Error m -> Alcotest.failf "config roundtrip failed: %s" m);
  (* missing fields fall back to the defaults; junk is rejected *)
  (match Server.config_of_line "{}" with
  | Ok c ->
    Alcotest.(check int) "defaults fill in"
      Server.default_config.Server.max_steps c.Server.max_steps
  | Error m -> Alcotest.failf "empty object rejected: %s" m);
  Alcotest.(check bool) "junk rejected" true
    (Result.is_error (Server.config_of_line "[1,2"));
  Alcotest.(check bool) "bad field type rejected" true
    (Result.is_error (Server.config_of_line {|{"max_steps":"many"}|}))

let test_slow_log_rendering () =
  let server =
    mkserver ~config:{ Server.default_config with slow_log = 2 } ()
  in
  Alcotest.(check bool) "empty log renders as empty" true
    (contains
       (Fmt.str "%a" Server.pp_slow (Server.slow_requests server))
       "empty");
  Tel.with_installed (fun _ ->
      for _ = 1 to 3 do
        ignore (Server.handle server good_request)
      done);
  let rendered = Fmt.str "%a" Server.pp_slow (Server.slow_requests server) in
  Alcotest.(check bool) "header" true (contains rendered "slowest requests");
  Alcotest.(check bool) "renders the root span" true
    (contains rendered "service.request");
  Alcotest.(check bool) "renders the kind" true (contains rendered "parse")

let test_flight_dossiers () =
  let config =
    { Server.default_config with max_steps = 2500; flight_capacity = 16;
      flight_slowest = 1 }
  in
  let server = mkserver ~config () in
  let recorder = Option.get (Server.flight server) in
  Tel.with_installed (fun _ ->
      ignore (Server.serve_line server {|{"kind":"optimize","expr":"x*1+0"}|});
      ignore
        (Server.serve_line server
           {|{"kind":"closure","concept":"NoSuchConcept","types":["int"]}|});
      ignore (Server.serve_line server "this is not json"));
  (match Recorder.dossiers recorder with
  | [ ok_d; unk; inv ] ->
    Alcotest.(check string) "ok outcome" "ok" ok_d.Recorder.do_outcome;
    Alcotest.(check string) "kind" "optimize" ok_d.Recorder.do_kind;
    Alcotest.(check bool) "wire line is re-servable" true
      (Result.is_ok (Wire.request_of_line (Lazy.force ok_d.Recorder.do_wire)));
    Alcotest.(check string) "config line embedded"
      (Server.config_to_line config) ok_d.Recorder.do_config;
    Alcotest.(check string) "config fp"
      (Server.config_fingerprint config) ok_d.Recorder.do_config_fp;
    Alcotest.(check int) "registry generation"
      (Gp_concepts.Registry.generation (Server.registry server))
      ok_d.Recorder.do_generation;
    Alcotest.(check bool) "root-span duration positive" true
      (ok_d.Recorder.do_dur_ns > 0.0);
    Alcotest.(check bool) "cache chain recorded" true
      (ok_d.Recorder.do_cache_chain <> []);
    Alcotest.(check string) "error outcome" "unknown-name"
      unk.Recorder.do_outcome;
    Alcotest.(check bool) "error dossier keeps its span tree" true
      (unk.Recorder.do_spans <> []);
    (let spans = unk.Recorder.do_spans in
     let root = List.nth spans (List.length spans - 1) in
     Alcotest.(check string) "root is service.request" "service.request"
       root.Gp_telemetry.Trace.sp_name);
    Alcotest.(check string) "invalid kind" "invalid" inv.Recorder.do_kind;
    Alcotest.(check string) "invalid outcome" "bad-request"
      inv.Recorder.do_outcome;
    Alcotest.(check string) "raw line preserved" "this is not json"
      (Lazy.force inv.Recorder.do_wire)
  | l -> Alcotest.failf "expected 3 dossiers, got %d" (List.length l));
  Alcotest.(check bool) "flight_capacity = 0 disables the recorder" true
    (Option.is_none
       (Server.flight (mkserver ~config:{ config with flight_capacity = 0 } ())))

let test_flight_replay () =
  let config =
    { Server.default_config with max_steps = 2500; flight_capacity = 256 }
  in
  let n = 40 in
  let reqs = Workload.generate ~errors:0.3 ~seed:5 ~n () in
  let dossiers =
    Tel.with_installed (fun _ ->
        let server = mkserver ~config () in
        ignore (Server.process server reqs);
        Recorder.dossiers (Option.get (Server.flight server)))
  in
  Alcotest.(check int) "one dossier per request" n (List.length dossiers);
  (* round-trip through the JSONL dump format, as gp replay would *)
  let dump =
    String.concat ""
      (List.map (fun d -> Recorder.dossier_to_json d ^ "\n") dossiers)
  in
  let parsed =
    match Flight.of_jsonl dump with
    | Ok ds -> ds
    | Error m -> Alcotest.failf "dump does not parse: %s" m
  in
  Alcotest.(check bool) "injected errors rode along" true
    (List.exists (fun d -> d.Recorder.do_outcome <> "ok") parsed);
  let o =
    match Flight.replay ~declare_standard parsed with
    | Ok o -> o
    | Error m -> Alcotest.failf "replay: %s" m
  in
  Alcotest.(check int) "total" n o.Flight.rep_total;
  Alcotest.(check int) "all fingerprints match" n o.Flight.rep_matched;
  Alcotest.(check bool) "all_matched" true (Flight.all_matched o);
  Alcotest.(check int) "replayed under the recorded config"
    config.Server.max_steps o.Flight.rep_config.Server.max_steps;
  (* a tampered fingerprint is detected as exactly one divergence *)
  let tampered =
    List.mapi
      (fun i d ->
        if i = 3 then
          { d with Recorder.do_response_fp = Lazy.from_val "0000" }
        else d)
      parsed
  in
  match Flight.replay ~declare_standard tampered with
  | Error m -> Alcotest.failf "tampered replay errored: %s" m
  | Ok o2 -> (
    Alcotest.(check int) "one divergence" 1 (List.length o2.Flight.rep_diverged);
    Alcotest.(check bool) "not all matched" false (Flight.all_matched o2);
    match o2.Flight.rep_diverged with
    | [ dv ] ->
      Alcotest.(check int) "the tampered dossier diverged"
        (List.nth parsed 3).Recorder.do_id
        dv.Flight.dv_dossier.Recorder.do_id;
      Alcotest.(check bool) "divergence report renders" true
        (contains (Fmt.str "%a" Flight.pp_outcome o2) "mismatch")
    | _ -> ())

let test_workload_error_injection () =
  (* errors = 0.0 keeps the stream byte-identical to the pre-errors API *)
  Alcotest.(check string) "errors=0 is the plain stream"
    (Workload.fingerprint (Workload.generate ~seed:3 ~n:50 ()))
    (Workload.fingerprint (Workload.generate ~errors:0.0 ~seed:3 ~n:50 ()));
  Alcotest.(check string) "seeded error stream deterministic"
    (Workload.fingerprint (Workload.generate ~errors:0.5 ~seed:3 ~n:50 ()))
    (Workload.fingerprint (Workload.generate ~errors:0.5 ~seed:3 ~n:50 ()));
  Alcotest.(check bool) "injection changes the stream" true
    (Workload.fingerprint (Workload.generate ~errors:0.5 ~seed:3 ~n:50 ())
    <> Workload.fingerprint (Workload.generate ~seed:3 ~n:50 ()));
  (* the injected requests actually fail when served, across several
     distinct error surfaces, under a budget tight enough to catch the
     identity-chain budget-buster *)
  let server =
    mkserver ~config:{ Server.default_config with max_steps = 2500 } ()
  in
  let rsps =
    Server.process server (Workload.generate ~errors:0.4 ~seed:3 ~n:50 ())
  in
  let failed = List.filter (fun r -> not (Request.ok r)) rsps in
  Alcotest.(check bool) "some requests fail" true (failed <> []);
  let codes = List.sort_uniq compare (List.map code_name failed) in
  Alcotest.(check bool) "several distinct error codes" true
    (List.length codes >= 2);
  Alcotest.(check bool) "errors outside [0,1] rejected" true
    (match Workload.generate ~errors:1.5 ~seed:1 ~n:1 () with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Numeric requests (gp_structla end to end)                           *)
(* ------------------------------------------------------------------ *)

let test_numeric_dispatch () =
  let open Gp_structla in
  let server = mkserver () in
  let rsp =
    Server.handle server
      (Request.Matvec { structure = "diagonal"; n = 32; seed = 1 })
  in
  match rsp.Request.rsp_result with
  | Ok (Request.Computed { kernel; detected; n; steps; checksum }) ->
    Alcotest.(check string) "most refined kernel" "matvec.diagonal" kernel;
    Alcotest.(check string) "detected structure" "diagonal" detected;
    Alcotest.(check int) "order echoed" 32 n;
    Alcotest.(check int) "steps are the diagonal count" 32 steps;
    (* bit-exact against the same generate -> classify -> select path
       run outside the server *)
    let reg = Gp_standard.Standard.registry () in
    let d =
      Option.get (Mat.generate_dense ~structure:"diagonal" ~n:32 ~seed:1)
    in
    let m = Detect.classify_quiet d in
    let x = Mat.generate_vec ~n:32 ~seed:1 in
    (match Select.matvec reg (Select.create ()) m x with
    | Ok (_, y) ->
      Alcotest.(check string) "checksum matches a direct computation"
        (Mat.checksum_vec y) checksum
    | Error e -> Alcotest.fail e)
  | Ok _ -> Alcotest.fail "expected a Computed payload"
  | Error _ -> Alcotest.fail "matvec request failed"

let test_numeric_cache_and_budget () =
  (* generous budget: the replayed request is cache-served, same payload *)
  let server = mkserver () in
  let req = Request.Matmul { structure = "banded"; n = 24; seed = 2 } in
  let r1 = Server.handle server req in
  let r2 = Server.handle server req in
  Alcotest.(check bool) "first is computed" false r1.Request.rsp_cached;
  Alcotest.(check bool) "second is cache-served" true r2.Request.rsp_cached;
  Alcotest.(check bool) "payloads identical" true
    (r1.Request.rsp_result = r2.Request.rsp_result);
  (* tight budget: the kernel's step count is charged on hit and miss
     alike, so caching cannot change an Over_budget verdict *)
  let tight =
    mkserver ~config:{ Server.default_config with max_steps = 1000 } ()
  in
  let heavy = Request.Solve { structure = "dense"; n = 48; seed = 0 } in
  check_code "miss goes over budget" Request.Over_budget
    (Server.handle tight heavy);
  check_code "hit goes over budget too" Request.Over_budget
    (Server.handle tight heavy);
  assert_alive tight

let test_numeric_validation () =
  let server = mkserver () in
  check_code "unknown structure" Request.Unknown_name
    (Server.handle server
       (Request.Matvec { structure = "toeplitz"; n = 8; seed = 0 }));
  check_code "n too large" Request.Bad_request
    (Server.handle server
       (Request.Matvec { structure = "dense"; n = 100_000; seed = 0 }));
  check_code "n < 1" Request.Bad_request
    (Server.handle server (Request.Solve { structure = "dense"; n = 0; seed = 0 }));
  (* wire: seed is optional (0), n is required *)
  (match
     Wire.request_of_line {|{"kind":"matvec","structure":"csr","n":16}|}
   with
  | Ok (None, Request.Matvec { structure = "csr"; n = 16; seed = 0 }) -> ()
  | Ok _ -> Alcotest.fail "wrong decode of a seedless matvec"
  | Error e -> Alcotest.fail e);
  (match Wire.request_of_line {|{"kind":"solve","structure":"dense"}|} with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing n must be rejected");
  assert_alive server

let test_numeric_workload () =
  let mix =
    Workload.default_mix
    @ [ (Request.Kmatvec, 10); (Request.Kmatmul, 5); (Request.Ksolve, 5) ]
  in
  let reqs = Workload.generate ~mix ~seed:3 ~n:80 () in
  Alcotest.(check string) "deterministic with numeric kinds"
    (Workload.fingerprint reqs)
    (Workload.fingerprint (Workload.generate ~mix ~seed:3 ~n:80 ()));
  let kinds = List.map Request.kind reqs in
  Alcotest.(check bool) "numeric kinds drawn" true
    (List.exists
       (fun k ->
         k = Request.Kmatvec || k = Request.Kmatmul || k = Request.Ksolve)
       kinds);
  (* every numeric pool entry fits the default 100k-step budget *)
  let server = mkserver () in
  let rsps = Server.process server reqs in
  Alcotest.(check int) "all served" 80 (List.length rsps);
  List.iter
    (fun r ->
      if not (Request.ok r) then
        Alcotest.failf "request failed with %s" (code_name r))
    rsps

let () =
  Alcotest.run "service"
    [ ( "lru",
        [ Alcotest.test_case "hit/miss/evict" `Quick test_lru_basic;
          Alcotest.test_case "recency order" `Quick test_lru_recency;
          Alcotest.test_case "find_or_compute" `Quick test_lru_find_or_compute;
          Alcotest.test_case "invalid capacity" `Quick test_lru_invalid_capacity;
          qtest lru_model_prop ] );
      ( "budget",
        [ Alcotest.test_case "step allowance" `Quick test_budget_steps;
          Alcotest.test_case "unlimited default" `Quick test_budget_unlimited;
          Alcotest.test_case "deadline over a fake clock" `Quick
            test_budget_deadline ] );
      ( "wire",
        [ Alcotest.test_case "json roundtrip" `Quick test_wire_json_roundtrip;
          Alcotest.test_case "request roundtrip" `Quick
            test_wire_request_roundtrip;
          Alcotest.test_case "bad lines rejected" `Quick test_wire_bad_lines;
          Alcotest.test_case "response encodes" `Quick
            test_wire_response_encodes;
          Alcotest.test_case "hardening: positioned rejections" `Quick
            test_wire_hardening;
          Alcotest.test_case "direct parser = ast oracle" `Quick
            test_wire_parser_agreement;
          qtest wire_roundtrip_prop;
          qtest wire_response_stream_prop ] );
      ( "robustness",
        [ Alcotest.test_case "malformed corpus" `Quick test_malformed_corpus;
          Alcotest.test_case "over budget" `Quick test_over_budget;
          Alcotest.test_case "timeout" `Quick test_timeout;
          Alcotest.test_case "queue full" `Quick test_queue_full;
          Alcotest.test_case "process admits each request once" `Quick
            test_process_accounting;
          Alcotest.test_case "metrics accounting" `Quick
            test_metrics_accounting;
          Alcotest.test_case "gc counters in stats report" `Quick
            test_report_json_gc ] );
      ( "transparency",
        [ Alcotest.test_case "direct library equivalence" `Quick
            test_direct_library_equivalence;
          Alcotest.test_case "sandboxes keep the shared index" `Quick
            test_sandbox_keeps_shared_index;
          Alcotest.test_case "cache off reports zero" `Quick
            test_cache_off_reports_zero;
          Alcotest.test_case "cache hits on replay" `Quick
            test_cache_hits_on_replay;
          qtest transparency_prop ] );
      ( "workload",
        [ Alcotest.test_case "deterministic per seed" `Quick
            test_workload_determinism;
          Alcotest.test_case "mix parsing" `Quick test_workload_mix;
          Alcotest.test_case "mix error positions" `Quick
            test_workload_mix_errors;
          Alcotest.test_case "input validation" `Quick test_workload_validation;
          Alcotest.test_case "seeded error injection" `Quick
            test_workload_error_injection;
          qtest workload_pure_prop ] );
      ( "numeric",
        [ Alcotest.test_case "most refined kernel served" `Quick
            test_numeric_dispatch;
          Alcotest.test_case "cache and budget independence" `Quick
            test_numeric_cache_and_budget;
          Alcotest.test_case "validation and wire defaults" `Quick
            test_numeric_validation;
          Alcotest.test_case "numeric workload mix" `Quick
            test_numeric_workload ] );
      ( "flight",
        [ Alcotest.test_case "config line roundtrip" `Quick
            test_config_line_roundtrip;
          Alcotest.test_case "slow log renders span trees" `Quick
            test_slow_log_rendering;
          Alcotest.test_case "dossier capture" `Quick test_flight_dossiers;
          Alcotest.test_case "replay matches recording" `Quick
            test_flight_replay ] );
      ( "propagate",
        [ Alcotest.test_case "closure_with agrees with closure" `Quick
            test_propagate_closure_with;
          Alcotest.test_case "registry generation" `Quick
            test_registry_generation;
          Alcotest.test_case "request_key tracks generation" `Quick
            test_request_key_tracks_generation;
          Alcotest.test_case "served closure tracks mutations" `Quick
            test_closure_tracks_registry_mutation ] ) ]
