(* Tests for the serving layer: LRU memo caches, budgets, the wire
   codec, the robustness corpus (malformed input never kills the
   server), cache transparency, workload determinism, and the
   propagation-closure refactor that makes closures memoisable. *)

open Gp_service
module Json = Gp_telemetry.Json

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
    Json.Obj
      [ ("a", Json.Arr [ Json.Int 1; Json.Float 2.5; Json.Null ]);
        ("s", Json.Str "a\"b\\c\nd\ttab");
        ("t", Json.Bool true); ("f", Json.Bool false) ]
  in
  Alcotest.(check bool) "parse inverts to_string" true
    (Json.parse (Json.to_string v) = v);
  Alcotest.(check bool) "unicode escape" true
    (Json.parse "\"\\u0041\"" = Json.Str "A")

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
  match Json.parse (Wire.response_to_line rsp) with
  | Json.Obj fields ->
    Alcotest.(check bool) "has status" true (List.mem_assoc "status" fields);
    Alcotest.(check bool) "has id" true (List.mem_assoc "id" fields)
  | _ -> Alcotest.fail "response line is not an object"

(* Hardening: duplicate keys and trailing garbage are rejected with the
   exact positioned messages below — pinned so the direct parser and the
   AST oracle can never drift apart silently. *)
let test_wire_hardening () =
  let expect_parse_error src msg =
    match Json.parse src with
    | exception Json.Error m -> Alcotest.(check string) src msg m
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
        (show (Oracles.request_of_line_ast line))
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
      match (Wire.request_of_line line, Oracles.request_of_line_ast line) with
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
                   Timeout; Internal ])
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
      if Wire.response_to_line r <> Oracles.response_to_line_ast r then
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

(* An out-of-range or malformed numeric literal is a parse failure in
   every text front end, reported on the wire like any other. *)
let test_numeric_literals_are_parse_failures () =
  let server = mkserver () in
  List.iter
    (fun (name, line) ->
      match Server.serve_line server line with
      | Some rsp ->
        check_code name Request.Parse_failure rsp;
        Alcotest.(check bool) (name ^ " on the wire") true
          (contains (Wire.response_to_line rsp) {|"parse-failure"|})
      | None -> Alcotest.failf "%s: no response" name)
    [ ( "lint literal",
        {|{"kind":"lint","source":"vector<int> v;\niter i = v.begin();\n*i = 99999999999999999999;"}|} );
      ( "check defs literal",
        {|{"kind":"check","concept":"C","types":["t"],"nominal":false,"defs":"concept C<T> { f : T -> T; complexity f O(n^99999999999999999999); }"}|} );
      ( "parse literal",
        {|{"kind":"parse","source":"concept C<T> { f : T -> T; complexity f O(n^99999999999999999999); }"}|} );
      ( "optimize integer",
        {|{"kind":"optimize","expr":"x + 99999999999999999999999"}|} );
      ("optimize float", {|{"kind":"optimize","expr":"x * 1.2.3"}|}) ];
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
  match Json.parse report with
  | Json.Obj fields -> (
    match List.assoc_opt "gc" fields with
    | Some (Json.Obj gc) ->
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

let error_series server =
  Gp_telemetry.Metrics.counter_series
    (Metrics.registry (Server.metrics server))
    "gp_request_errors_total"

(* The workload driver serves each request exactly once: the server
   counts one request per response, hands out ids 1..n without gaps, and
   records no error that no client ever saw. *)
let test_process_accounting () =
  let server = mkserver () in
  let n = 30 in
  let rsps = Server.process server (Workload.generate ~seed:5 ~n ()) in
  Alcotest.(check int) "one response per request" n (List.length rsps);
  Alcotest.(check int) "requests counted = responses produced"
    (List.length rsps)
    (Metrics.requests (Server.metrics server));
  Alcotest.(check (list int)) "ids run 1..n without gaps"
    (List.init n (fun i -> i + 1))
    (List.map (fun r -> r.Request.rsp_id) rsps);
  Alcotest.(check int) "no error series recorded" 0
    (List.length (error_series server))

(* [process] is [handle] in order and nothing more: on two fresh servers
   it gives the same response bytes, ids and request/error counts as
   mapping [handle] over the stream, error-injected streams included. *)
let process_is_map_handle_prop =
  QCheck.Test.make ~name:"process = List.map handle" ~count:25
    QCheck.(pair (int_bound 10_000) (int_range 0 3))
    (fun (seed, tenths) ->
      let errors = float_of_int tenths /. 10.0 in
      let reqs = Workload.generate ~errors ~seed ~n:40 () in
      let config = { Server.default_config with max_steps = 2500 } in
      let s = mkserver ~config () and s' = mkserver ~config () in
      let lines rsps = List.map Wire.response_to_line rsps in
      let a = Server.process s reqs in
      let b = List.map (Server.handle s') reqs in
      if lines a <> lines b then
        QCheck.Test.fail_reportf "responses differ (seed %d)" seed;
      Metrics.requests (Server.metrics s) = Metrics.requests (Server.metrics s')
      && Metrics.errors (Server.metrics s) = Metrics.errors (Server.metrics s')
      && error_series s = error_series s')

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

(* A prove cache hit skips building the plan, but not the accounting:
   one miss then one hit for a valid request, while unknown names
   answer Unknown_name every time and never reach the cache. *)
let test_prove_hit_accounting () =
  let server = mkserver () in
  let prove theory instance =
    (Server.handle server (Request.Prove { theory; instance }))
      .Request.rsp_result
  in
  let proofs () =
    List.find
      (fun s -> String.equal s.Lru.st_name "proofs")
      (Server.cache_stats server)
  in
  let first = prove "group" None in
  let again = prove "group" None in
  Alcotest.(check bool) "same verdicts" true (first = again);
  (match first with
  | Ok (Request.Proved _) -> ()
  | _ -> Alcotest.fail "prove group did not succeed");
  List.iter
    (fun (theory, instance) ->
      for _ = 1 to 2 do
        match prove theory instance with
        | Error { Request.code = Request.Unknown_name; _ } -> ()
        | _ -> Alcotest.failf "prove %s: expected Unknown_name" theory
      done)
    [ ("astrology", None); ("group", Some "quaternion[?]") ];
  let s = proofs () in
  Alcotest.(check int) "one miss" 1 s.Lru.st_misses;
  Alcotest.(check int) "one hit" 1 s.Lru.st_hits;
  Alcotest.(check int) "one entry" 1 s.Lru.st_size

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
      max_steps = 2500; timeout = Some 1.5;
      slow_log = 3; flight_capacity = 99; flight_slowest = 2 }
  in
  (match Server.config_of_line (Server.config_to_line config) with
  | Ok c ->
    Alcotest.(check bool) "caching" false c.Server.caching;
    Alcotest.(check int) "cache_capacity" 17 c.Server.cache_capacity;
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

(* Out-of-range configs are refused where they enter — a recorded config
   line, a server built from a record — instead of crashing later in
   [Lru.create] or in [Budget.create] under [Server.handle]. *)
let test_config_ranges () =
  let rejected name line =
    match Server.config_of_line line with
    | Ok _ -> Alcotest.failf "%s: %s accepted" name line
    | Error m ->
      Alcotest.(check bool) (name ^ " says bad config") true
        (contains m "bad config")
  in
  rejected "cache_capacity 0" {|{"cache_capacity":0}|};
  rejected "max_steps -3" {|{"max_steps":-3}|};
  rejected "timeout -1" {|{"timeout":-1}|};
  rejected "timeout -0.5" {|{"timeout":-0.5}|};
  rejected "slow_log -1" {|{"slow_log":-1}|};
  rejected "flight_capacity -1" {|{"flight_capacity":-1}|};
  rejected "flight_slowest -1" {|{"flight_slowest":-1}|};
  let d = Server.default_config in
  List.iter
    (fun (name, c) ->
      Alcotest.(check bool) (name ^ " rejected") true
        (Result.is_error (Server.validate_config c));
      match mkserver ~config:c () with
      | _ -> Alcotest.failf "%s: server created" name
      | exception Invalid_argument m ->
        Alcotest.(check bool) (name ^ ": create names the check") true
          (contains m "Server.create"))
    [ ("cache_capacity 0", { d with cache_capacity = 0 });
      ("max_steps -5", { d with max_steps = -5 });
      ("timeout -1", { d with timeout = Some (-1.0) });
      ("timeout nan", { d with timeout = Some Float.nan });
      ("timeout infinity", { d with timeout = Some Float.infinity });
      ("slow_log -1", { d with slow_log = -1 });
      ("flight_capacity -1", { d with flight_capacity = -1 });
      ("flight_slowest -1", { d with flight_slowest = -1 }) ];
  Alcotest.(check bool) "the edges stay legal" true
    (Result.is_ok
       (Server.validate_config
          { d with cache_capacity = 1; max_steps = 0; timeout = Some 0.0;
            slow_log = 0; flight_capacity = 0; flight_slowest = 0 }))

(* A flight dump whose config line is out of range is a replay error,
   not an exception. *)
let test_replay_bad_config () =
  let server = mkserver () in
  ignore (Server.serve_line server {|{"kind":"optimize","expr":"x*1+0"}|});
  let d = List.hd (Recorder.dossiers (Option.get (Server.flight server))) in
  List.iter
    (fun bad ->
      let d = { d with Recorder.do_config = bad } in
      match Flight.replay ~declare_standard [ d ] with
      | Ok _ -> Alcotest.failf "replayed under %s" bad
      | Error m ->
        Alcotest.(check bool) "replay reports a bad config" true
          (contains m "bad config")
      | exception e ->
        Alcotest.failf "replay raised %s under %s" (Printexc.to_string e) bad)
    [ {|{"cache_capacity":0}|}; {|{"max_steps":-3}|} ]

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

(* load ∘ dump is the identity on the dump text: decoding a flight dump
   and dumping the dossiers again gives the same bytes — over workloads
   with injected errors, profiled spans (gc deltas, attrs) and, on some
   dossiers, nan durations. *)
let flight_dump_fixpoint_prop =
  qtest
    (QCheck.Test.make ~name:"flight dump is a fixpoint of load" ~count:15
       QCheck.(pair (int_bound 10_000) (int_bound 3))
       (fun (seed, nan_every) ->
         let n = 30 in
         let reqs = Workload.generate ~errors:0.25 ~seed ~n () in
         let config = { Server.default_config with flight_slowest = n } in
         let ds =
           Tel.with_installed (fun _ ->
               Gp_telemetry.Profile.with_profiling (fun () ->
                   let server = mkserver ~config () in
                   ignore (Server.process server reqs);
                   Recorder.dossiers (Option.get (Server.flight server))))
         in
         let ds =
           List.mapi
             (fun i (d : Recorder.dossier) ->
               if i mod (nan_every + 2) <> 0 then d
               else
                 { d with
                   do_dur_ns = Float.nan;
                   do_spans =
                     List.map
                       (fun sp ->
                         { sp with Gp_telemetry.Trace.sp_dur_ns = Float.nan })
                       d.do_spans })
             ds
         in
         let to_jsonl ds =
           let r = Recorder.create ~capacity:n ~slowest:n () in
           List.iter (Recorder.record r) ds;
           Recorder.to_jsonl r
         in
         let dump = to_jsonl ds in
         match Recorder.of_jsonl dump with
         | Ok ds' ->
           (* the dump does carry what the property is about *)
           contains dump {|"gc":{"alloc_bytes"|}
           && contains dump {|"attrs":{"|}
           && contains dump {|"dur_ns":null|}
           && String.equal dump (to_jsonl ds')
         | Error m -> QCheck.Test.fail_reportf "dump does not load: %s" m))

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
    match Recorder.of_jsonl dump with
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
    (* bit-exact against the dense generate -> classify -> select path
       run outside the server *)
    let reg = Gp_standard.Standard.registry () in
    let d =
      Option.get (Oracles.generate_dense ~structure:"diagonal" ~n:32 ~seed:1)
    in
    let m = Detect.classify (Mat.Dense d) in
    let x = Mat.generate_vec ~n:32 ~seed:1 in
    (match Select.matvec reg (Select.create ()) m x with
    | Ok (_, y) ->
      Alcotest.(check string) "checksum matches a direct computation"
        (Mat.checksum_vec y) checksum
    | Error e -> Alcotest.fail e)
  | Ok _ -> Alcotest.fail "expected a Computed payload"
  | Error _ -> Alcotest.fail "matvec request failed"

(* Numeric answers pinned across commits: (op, structure, n, seed) ->
   (kernel, detected, kernel_steps, checksum), as served by the
   closure-based generators and kernels the current loops replaced.
   Every (op, structure) at n in {1, 7, 24, 40}, plus 64 for matvec and
   solve and 96 for matvec, at seeds {0, 5}; then three spot cases. A
   changed checksum means a changed bit in some result. *)
let numeric_pins =
  [
    ("matvec", "dense", 1, 0,
     "matvec.diagonal", "diagonal", 1, "3ecb4a5482d2c03e3a5855036b4e1094");
    ("matvec", "dense", 1, 5,
     "matvec.diagonal", "diagonal", 1, "52b81d5f02d2047dada4f5793a2ad7fa");
    ("matvec", "dense", 7, 0,
     "matvec.dense", "dense", 49, "05f0270f7163d0ae1c35cefaa1953d46");
    ("matvec", "dense", 7, 5,
     "matvec.dense", "dense", 49, "cc24c207e3640d503fd8ead52757f770");
    ("matvec", "dense", 24, 0,
     "matvec.dense", "dense", 576, "db5a13227320fc7d7616a602d8a73f9b");
    ("matvec", "dense", 24, 5,
     "matvec.dense", "dense", 576, "c28f024c302bcbd9a5020119e98c55e5");
    ("matvec", "dense", 40, 0,
     "matvec.dense", "dense", 1600, "aa6cf04bf6885ab3478cbdf534b1924c");
    ("matvec", "dense", 40, 5,
     "matvec.dense", "dense", 1600, "3e9ebd1c6ec65003d19a1827a27647d7");
    ("matvec", "dense", 64, 0,
     "matvec.dense", "dense", 4096, "40eb731422dfade3adacb422b12704e0");
    ("matvec", "dense", 64, 5,
     "matvec.dense", "dense", 4096, "0985e51d47392e8ba177302e3ffa9d3e");
    ("matvec", "dense", 96, 0,
     "matvec.dense", "dense", 9216, "0a69daa55822f9707a122c3bd6f398d0");
    ("matvec", "dense", 96, 5,
     "matvec.dense", "dense", 9216, "d5dcac75e667b72d2c1516722b17ac1f");
    ("matvec", "diagonal", 1, 0,
     "matvec.diagonal", "diagonal", 1, "5a8b49f35d3215074f63adf6a96a4006");
    ("matvec", "diagonal", 1, 5,
     "matvec.diagonal", "diagonal", 1, "c58730684471a6a8f1b54899b2ad7b46");
    ("matvec", "diagonal", 7, 0,
     "matvec.diagonal", "diagonal", 7, "d1da3eedd63ac300a045acaff1e079d3");
    ("matvec", "diagonal", 7, 5,
     "matvec.diagonal", "diagonal", 7, "ede9575e5396533efc7bacff47605254");
    ("matvec", "diagonal", 24, 0,
     "matvec.diagonal", "diagonal", 24, "e8d3366b55ec4b1d056520ac22ebfe6d");
    ("matvec", "diagonal", 24, 5,
     "matvec.diagonal", "diagonal", 24, "260f9abea820f5cd0ea36b5ebede6e7c");
    ("matvec", "diagonal", 40, 0,
     "matvec.diagonal", "diagonal", 40, "a3bd3218b0496e1aa90a26b1b376a748");
    ("matvec", "diagonal", 40, 5,
     "matvec.diagonal", "diagonal", 40, "6b98e8cad7efffb87f3b42815cc4dac2");
    ("matvec", "diagonal", 64, 0,
     "matvec.diagonal", "diagonal", 64, "d8cd1ba56775205f4e9375db1fbd6359");
    ("matvec", "diagonal", 64, 5,
     "matvec.diagonal", "diagonal", 64, "ce1654666de36fa51cc0316002fa70fe");
    ("matvec", "diagonal", 96, 0,
     "matvec.diagonal", "diagonal", 96, "9b18ccc3669b907ca9027b921ec94a88");
    ("matvec", "diagonal", 96, 5,
     "matvec.diagonal", "diagonal", 96, "8be7aa3e78ed204b7f4549c27883a71c");
    ("matvec", "banded", 1, 0,
     "matvec.diagonal", "diagonal", 1, "3ecb4a5482d2c03e3a5855036b4e1094");
    ("matvec", "banded", 1, 5,
     "matvec.diagonal", "diagonal", 1, "52b81d5f02d2047dada4f5793a2ad7fa");
    ("matvec", "banded", 7, 0,
     "matvec.dense", "dense", 49, "ae6b3f6aae6d585e13f7cec23a1c9bb0");
    ("matvec", "banded", 7, 5,
     "matvec.dense", "dense", 49, "5edcea6497dda3c7cda5b734798793ac");
    ("matvec", "banded", 24, 0,
     "matvec.banded", "banded", 196, "0fa71aae484a39f4aa21529e49531d57");
    ("matvec", "banded", 24, 5,
     "matvec.banded", "banded", 196, "ef7de04960caee15e444a44089d1b0a3");
    ("matvec", "banded", 40, 0,
     "matvec.banded", "banded", 340, "ddcd1e0dade75b7a58041d1b38d79077");
    ("matvec", "banded", 40, 5,
     "matvec.banded", "banded", 340, "c23f319ec788b8f327c020e5ce3f7ae9");
    ("matvec", "banded", 64, 0,
     "matvec.banded", "banded", 556, "6a3caf53a6252a77ca48a5f2e1d79e25");
    ("matvec", "banded", 64, 5,
     "matvec.banded", "banded", 556, "4fd9fcf66dacaac942f63621a1fbc8c5");
    ("matvec", "banded", 96, 0,
     "matvec.banded", "banded", 844, "6c3777dd45dd04a3580a1ad469019a8a");
    ("matvec", "banded", 96, 5,
     "matvec.banded", "banded", 844, "8fe6932ebf03ddcfb78307da02390b7c");
    ("matvec", "triangular", 1, 0,
     "matvec.diagonal", "diagonal", 1, "3ecb4a5482d2c03e3a5855036b4e1094");
    ("matvec", "triangular", 1, 5,
     "matvec.diagonal", "diagonal", 1, "52b81d5f02d2047dada4f5793a2ad7fa");
    ("matvec", "triangular", 7, 0,
     "matvec.triangular", "triangular", 28, "e98632dd145d0a31ce6ea4b957e6b695");
    ("matvec", "triangular", 7, 5,
     "matvec.triangular", "triangular", 28, "c0d3432f8ae8e3e10ea8408ae771e20d");
    ("matvec", "triangular", 24, 0,
     "matvec.triangular", "triangular", 300, "401bfeb37cad1d791aeb92761e9f3c42");
    ("matvec", "triangular", 24, 5,
     "matvec.triangular", "triangular", 300, "80e8cc3615d918bc670d50af9ca83f10");
    ("matvec", "triangular", 40, 0,
     "matvec.triangular", "triangular", 820, "e5428cab5196ba2d36281f26212415fe");
    ("matvec", "triangular", 40, 5,
     "matvec.triangular", "triangular", 820, "795976d171f96e949fd96222285e51a2");
    ("matvec", "triangular", 64, 0,
     "matvec.triangular", "triangular", 2080, "11b321e7450637d768e792a66384f7e0");
    ("matvec", "triangular", 64, 5,
     "matvec.triangular", "triangular", 2080, "e701bcfd93b072c12d338f1ec51e758b");
    ("matvec", "triangular", 96, 0,
     "matvec.triangular", "triangular", 4656, "f8bf4a295c4a6dc77f368569f4ba002d");
    ("matvec", "triangular", 96, 5,
     "matvec.triangular", "triangular", 4656, "19fca15bc678d75325a850178a4bd53c");
    ("matvec", "symmetric", 1, 0,
     "matvec.diagonal", "diagonal", 1, "3ecb4a5482d2c03e3a5855036b4e1094");
    ("matvec", "symmetric", 1, 5,
     "matvec.diagonal", "diagonal", 1, "52b81d5f02d2047dada4f5793a2ad7fa");
    ("matvec", "symmetric", 7, 0,
     "matvec.symmetric", "symmetric", 28, "952d27b4e761368e172efbf9d4526a80");
    ("matvec", "symmetric", 7, 5,
     "matvec.symmetric", "symmetric", 28, "5c3338a67e9e27d56055b51cc877fc2a");
    ("matvec", "symmetric", 24, 0,
     "matvec.symmetric", "symmetric", 300, "526be7f79afea1a7ecb549f1ae7f53f9");
    ("matvec", "symmetric", 24, 5,
     "matvec.symmetric", "symmetric", 300, "752f4e5c52b7b03f2b6e45fcf466e3f2");
    ("matvec", "symmetric", 40, 0,
     "matvec.symmetric", "symmetric", 820, "9795ccc436b68fa78b3946a0be0b948c");
    ("matvec", "symmetric", 40, 5,
     "matvec.symmetric", "symmetric", 820, "9ed2d46a7e926b4bf529d421391bbba2");
    ("matvec", "symmetric", 64, 0,
     "matvec.symmetric", "symmetric", 2080, "1b0c5cd753a2954104bdb86c7f88e747");
    ("matvec", "symmetric", 64, 5,
     "matvec.symmetric", "symmetric", 2080, "4c8dff161d8f6a3146d801d8b98b0ba5");
    ("matvec", "symmetric", 96, 0,
     "matvec.symmetric", "symmetric", 4656, "9a39ad31261417d1aa66423ed76b79b9");
    ("matvec", "symmetric", 96, 5,
     "matvec.symmetric", "symmetric", 4656, "1a85aa367d863f29f7ab6d00aec7276e");
    ("matvec", "csr", 1, 0,
     "matvec.diagonal", "diagonal", 1, "3ecb4a5482d2c03e3a5855036b4e1094");
    ("matvec", "csr", 1, 5,
     "matvec.diagonal", "diagonal", 1, "52b81d5f02d2047dada4f5793a2ad7fa");
    ("matvec", "csr", 7, 0,
     "matvec.triangular", "triangular", 28, "1cc30eb5943ff90ad9d88e3d390f7da5");
    ("matvec", "csr", 7, 5,
     "matvec.triangular", "triangular", 28, "a702d6106f72fb61f4883ede245608ac");
    ("matvec", "csr", 24, 0,
     "matvec.csr", "csr", 56, "464d5055cebf57a833d27ee79bb0e144");
    ("matvec", "csr", 24, 5,
     "matvec.csr", "csr", 51, "a67af4111663155f597ae51879b3e293");
    ("matvec", "csr", 40, 0,
     "matvec.csr", "csr", 118, "852607d9f924e64fdd3ffffb8f0d908c");
    ("matvec", "csr", 40, 5,
     "matvec.csr", "csr", 138, "6398c9ef67ddda0a3811dfbad1108d25");
    ("matvec", "csr", 64, 0,
     "matvec.csr", "csr", 256, "7e45c759548e6760ede78da043241b27");
    ("matvec", "csr", 64, 5,
     "matvec.csr", "csr", 284, "4033b7a48841995dea67240864f11adb");
    ("matvec", "csr", 96, 0,
     "matvec.csr", "csr", 568, "af11fe380e5966da280827d59d701635");
    ("matvec", "csr", 96, 5,
     "matvec.csr", "csr", 553, "8217919febfc81dd58a22d1bded8d610");
    ("matmul", "dense", 1, 0,
     "matmul.diagonal", "diagonal", 1, "e02e0d84c1f7b647c18ab9646d57ec89");
    ("matmul", "dense", 1, 5,
     "matmul.diagonal", "diagonal", 1, "e02e0d84c1f7b647c18ab9646d57ec89");
    ("matmul", "dense", 7, 0,
     "matmul.dense", "dense", 343, "9ec3dd5eb3a913141b6e62b2258fa2d9");
    ("matmul", "dense", 7, 5,
     "matmul.dense", "dense", 343, "6a5538ce7a2a29b7f6f72e5e531721bb");
    ("matmul", "dense", 24, 0,
     "matmul.dense", "dense", 13824, "2ecbba6d749124a08a1a8745b749e86f");
    ("matmul", "dense", 24, 5,
     "matmul.dense", "dense", 13824, "a73f4959ae4e083c8d7d0a8a5e9830a4");
    ("matmul", "dense", 40, 0,
     "matmul.dense", "dense", 64000, "bad169969b56b984b6ac6ee68f74bf19");
    ("matmul", "dense", 40, 5,
     "matmul.dense", "dense", 64000, "c355e35d012c7243ea6ea61de1e66921");
    ("matmul", "diagonal", 1, 0,
     "matmul.diagonal", "diagonal", 1, "1ae1386b5783dfb9bfdb22e66e924ffd");
    ("matmul", "diagonal", 1, 5,
     "matmul.diagonal", "diagonal", 1, "2645a79c383601573e54e6c65400d82c");
    ("matmul", "diagonal", 7, 0,
     "matmul.diagonal", "diagonal", 7, "b5d820489c17bc6ab9795363e0572598");
    ("matmul", "diagonal", 7, 5,
     "matmul.diagonal", "diagonal", 7, "01b72afcc9ef8634ee5321e5642acce7");
    ("matmul", "diagonal", 24, 0,
     "matmul.diagonal", "diagonal", 24, "f116f35106d5d6fad978586ac441f0de");
    ("matmul", "diagonal", 24, 5,
     "matmul.diagonal", "diagonal", 24, "53c86189a2030121bbe69585a144d12a");
    ("matmul", "diagonal", 40, 0,
     "matmul.diagonal", "diagonal", 40, "a799dcafb30162d92239c1e50635cb8d");
    ("matmul", "diagonal", 40, 5,
     "matmul.diagonal", "diagonal", 40, "d4af67acd01e3312e80a207737b85fff");
    ("matmul", "banded", 1, 0,
     "matmul.diagonal", "diagonal", 1, "e02e0d84c1f7b647c18ab9646d57ec89");
    ("matmul", "banded", 1, 5,
     "matmul.diagonal", "diagonal", 1, "e02e0d84c1f7b647c18ab9646d57ec89");
    ("matmul", "banded", 7, 0,
     "matmul.dense", "dense", 343, "d401562934cdbf1053e5618502c32fb0");
    ("matmul", "banded", 7, 5,
     "matmul.dense", "dense", 343, "824bb2e3413d770f53f12bb7c80b5094");
    ("matmul", "banded", 24, 0,
     "matmul.banded", "banded", 1644, "7c450b70237b39d98b711d2dfd48518b");
    ("matmul", "banded", 24, 5,
     "matmul.banded", "banded", 1644, "fb309758e3b9d7ded815d4222de07023");
    ("matmul", "banded", 40, 0,
     "matmul.banded", "banded", 2940, "fd5ff753a9d125831064e616d5160ac4");
    ("matmul", "banded", 40, 5,
     "matmul.banded", "banded", 2940, "e9567d3dc287de869b49607c2b9f58c9");
    ("matmul", "triangular", 1, 0,
     "matmul.diagonal", "diagonal", 1, "e02e0d84c1f7b647c18ab9646d57ec89");
    ("matmul", "triangular", 1, 5,
     "matmul.diagonal", "diagonal", 1, "e02e0d84c1f7b647c18ab9646d57ec89");
    ("matmul", "triangular", 7, 0,
     "matmul.dense", "triangular", 343, "91b3498cb0320d2f2ecfc662a6a31700");
    ("matmul", "triangular", 7, 5,
     "matmul.dense", "triangular", 343, "8ec36688b6323ce856364978534ed466");
    ("matmul", "triangular", 24, 0,
     "matmul.dense", "triangular", 13824, "582132eec9eaa2f787d829a236ad5838");
    ("matmul", "triangular", 24, 5,
     "matmul.dense", "triangular", 13824, "6371d83fd2b236cdbe913020b2a4f0d6");
    ("matmul", "triangular", 40, 0,
     "matmul.dense", "triangular", 64000, "a4b5fb00370440a913d75c76418f2ad0");
    ("matmul", "triangular", 40, 5,
     "matmul.dense", "triangular", 64000, "a208bb6e90b5575201987413c2a136ce");
    ("matmul", "symmetric", 1, 0,
     "matmul.diagonal", "diagonal", 1, "e02e0d84c1f7b647c18ab9646d57ec89");
    ("matmul", "symmetric", 1, 5,
     "matmul.diagonal", "diagonal", 1, "e02e0d84c1f7b647c18ab9646d57ec89");
    ("matmul", "symmetric", 7, 0,
     "matmul.dense", "symmetric", 343, "56d1ab50731b1c38f05083fc2c6420ab");
    ("matmul", "symmetric", 7, 5,
     "matmul.dense", "symmetric", 343, "67ab77943ac731b3f89f2aa9bd304198");
    ("matmul", "symmetric", 24, 0,
     "matmul.dense", "symmetric", 13824, "94d4dbe586840119958206dd269b7f2e");
    ("matmul", "symmetric", 24, 5,
     "matmul.dense", "symmetric", 13824, "4d882bb952b39b2b6b4aa83386f2fa26");
    ("matmul", "symmetric", 40, 0,
     "matmul.dense", "symmetric", 64000, "591b654ca3be492f4edbb9ea01e557fa");
    ("matmul", "symmetric", 40, 5,
     "matmul.dense", "symmetric", 64000, "f1c8b4c8176df7d1ae9d3dc3565faa7a");
    ("matmul", "csr", 1, 0,
     "matmul.diagonal", "diagonal", 1, "e02e0d84c1f7b647c18ab9646d57ec89");
    ("matmul", "csr", 1, 5,
     "matmul.diagonal", "diagonal", 1, "e02e0d84c1f7b647c18ab9646d57ec89");
    ("matmul", "csr", 7, 0,
     "matmul.dense", "triangular", 343, "ca6caf1cf44afc8006ebb0954e4124b8");
    ("matmul", "csr", 7, 5,
     "matmul.dense", "triangular", 343, "6fd8499809f103078762c0f1d19f82d2");
    ("matmul", "csr", 24, 0,
     "matmul.dense", "csr", 13824, "92efd48593725ae2d9335c16c5c02979");
    ("matmul", "csr", 24, 5,
     "matmul.dense", "csr", 13824, "e3291b104f56436e2772c4aabc7810e8");
    ("matmul", "csr", 40, 0,
     "matmul.dense", "csr", 64000, "4d055c57c87bbe11c1c8ee0198f15619");
    ("matmul", "csr", 40, 5,
     "matmul.dense", "csr", 64000, "cdb8fa76a23ea41e667fa2cc63b77a33");
    ("solve", "dense", 1, 0,
     "solve.diagonal", "diagonal", 1, "3ecb4a5482d2c03e3a5855036b4e1094");
    ("solve", "dense", 1, 5,
     "solve.diagonal", "diagonal", 1, "52b81d5f02d2047dada4f5793a2ad7fa");
    ("solve", "dense", 7, 0,
     "solve.dense", "dense", 163, "168a2b7498616a46c5ba5d08d8409198");
    ("solve", "dense", 7, 5,
     "solve.dense", "dense", 163, "72b697734000bf98ea579ba096156375");
    ("solve", "dense", 24, 0,
     "solve.dense", "dense", 5184, "b4c278429fd3bdc9d9ae63eba9bfb209");
    ("solve", "dense", 24, 5,
     "solve.dense", "dense", 5184, "a1ca17774e6d96529da911e2bff2c0c3");
    ("solve", "dense", 40, 0,
     "solve.dense", "dense", 22933, "af7ceb14a3a3cc6430e4a486c94c80b9");
    ("solve", "dense", 40, 5,
     "solve.dense", "dense", 22933, "9658958a6031163da9623cc1ee037d28");
    ("solve", "dense", 64, 0,
     "solve.dense", "dense", 91477, "026b304bfe59b160bc10ba68b4ebc02f");
    ("solve", "dense", 64, 5,
     "solve.dense", "dense", 91477, "5052954f5bc841f9982823e7ce60463a");
    ("solve", "diagonal", 1, 0,
     "solve.diagonal", "diagonal", 1, "b825e5dd0a8e70118d00619d9321e780");
    ("solve", "diagonal", 1, 5,
     "solve.diagonal", "diagonal", 1, "779aa85ae82c9bc877bae43af3eab602");
    ("solve", "diagonal", 7, 0,
     "solve.diagonal", "diagonal", 7, "6a299fc44cd92f645a3257f8ffd21497");
    ("solve", "diagonal", 7, 5,
     "solve.diagonal", "diagonal", 7, "deb7b4331af13d73741261a0a77fb5f5");
    ("solve", "diagonal", 24, 0,
     "solve.diagonal", "diagonal", 24, "79312ccf194f478feba00db38b9e84bd");
    ("solve", "diagonal", 24, 5,
     "solve.diagonal", "diagonal", 24, "b7969c471fddcb03a8eca8e290e0bcf4");
    ("solve", "diagonal", 40, 0,
     "solve.diagonal", "diagonal", 40, "7a69384022b0cb374a8f50268dfe6e51");
    ("solve", "diagonal", 40, 5,
     "solve.diagonal", "diagonal", 40, "dde5a3fad781088aff4134e87b0bbcf0");
    ("solve", "diagonal", 64, 0,
     "solve.diagonal", "diagonal", 64, "8b9ea81b331c9d1550f776ec790af84f");
    ("solve", "diagonal", 64, 5,
     "solve.diagonal", "diagonal", 64, "f88d2b3115820c17b7885db6d62d891c");
    ("solve", "banded", 1, 0,
     "solve.diagonal", "diagonal", 1, "3ecb4a5482d2c03e3a5855036b4e1094");
    ("solve", "banded", 1, 5,
     "solve.diagonal", "diagonal", 1, "52b81d5f02d2047dada4f5793a2ad7fa");
    ("solve", "banded", 7, 0,
     "solve.dense", "dense", 163, "64c73f27a1938a35e902bb8dca28601c");
    ("solve", "banded", 7, 5,
     "solve.dense", "dense", 163, "fc173c1f56aadf1301a1d1af703ad8cf");
    ("solve", "banded", 24, 0,
     "solve.dense", "banded", 5184, "66ba9089a29ce2bdad0272a9846b5c60");
    ("solve", "banded", 24, 5,
     "solve.dense", "banded", 5184, "37fec8e66b23c1a1374a42f2ccc4fb9c");
    ("solve", "banded", 40, 0,
     "solve.dense", "banded", 22933, "e4b3a962aed25632289f49eb2aee3dca");
    ("solve", "banded", 40, 5,
     "solve.dense", "banded", 22933, "0fc03f3d31f101629e3a963955994dfa");
    ("solve", "banded", 64, 0,
     "solve.dense", "banded", 91477, "42120966ba5f1028ba30f790b5df034c");
    ("solve", "banded", 64, 5,
     "solve.dense", "banded", 91477, "6625ada6c02ed33057ef75167608e4ec");
    ("solve", "triangular", 1, 0,
     "solve.diagonal", "diagonal", 1, "3ecb4a5482d2c03e3a5855036b4e1094");
    ("solve", "triangular", 1, 5,
     "solve.diagonal", "diagonal", 1, "52b81d5f02d2047dada4f5793a2ad7fa");
    ("solve", "triangular", 7, 0,
     "solve.triangular", "triangular", 28, "e4e1553c141a1dc7f822a6e82ceabaf1");
    ("solve", "triangular", 7, 5,
     "solve.triangular", "triangular", 28, "04dda88f83a1a8ef73a77c79c11560dc");
    ("solve", "triangular", 24, 0,
     "solve.triangular", "triangular", 300, "98acf1cfb54991e88e6811ffe4676b06");
    ("solve", "triangular", 24, 5,
     "solve.triangular", "triangular", 300, "90ee5126634521d9b623e5650e95cf09");
    ("solve", "triangular", 40, 0,
     "solve.triangular", "triangular", 820, "1dcfa052279ce9132ea076c17da3d4ff");
    ("solve", "triangular", 40, 5,
     "solve.triangular", "triangular", 820, "a589e01a9d6d9a9f20440b669d935e16");
    ("solve", "triangular", 64, 0,
     "solve.triangular", "triangular", 2080, "9b162033b6683dce071bb16eaadaf976");
    ("solve", "triangular", 64, 5,
     "solve.triangular", "triangular", 2080, "0c63dca565c82b722730ffab55f7bdd6");
    ("solve", "symmetric", 1, 0,
     "solve.diagonal", "diagonal", 1, "3ecb4a5482d2c03e3a5855036b4e1094");
    ("solve", "symmetric", 1, 5,
     "solve.diagonal", "diagonal", 1, "52b81d5f02d2047dada4f5793a2ad7fa");
    ("solve", "symmetric", 7, 0,
     "solve.dense", "symmetric", 163, "70ca6ed2d8245b8b098ed90635b3419e");
    ("solve", "symmetric", 7, 5,
     "solve.dense", "symmetric", 163, "129f97f16228a696360c808f9b2599ce");
    ("solve", "symmetric", 24, 0,
     "solve.dense", "symmetric", 5184, "415bbd2ea62f96ca0f249cf0f0b45e47");
    ("solve", "symmetric", 24, 5,
     "solve.dense", "symmetric", 5184, "47260056b457e070edc0f6ec25506be7");
    ("solve", "symmetric", 40, 0,
     "solve.dense", "symmetric", 22933, "ba63b83b86cfc4212762d291750ba3cd");
    ("solve", "symmetric", 40, 5,
     "solve.dense", "symmetric", 22933, "5e980433b5f14bddc8d5f0e0bc495d6c");
    ("solve", "symmetric", 64, 0,
     "solve.dense", "symmetric", 91477, "9c6ec9532329b69bdad9c864f1998624");
    ("solve", "symmetric", 64, 5,
     "solve.dense", "symmetric", 91477, "172900ae48ffc8f3092a393a88220c91");
    ("solve", "csr", 1, 0,
     "solve.diagonal", "diagonal", 1, "3ecb4a5482d2c03e3a5855036b4e1094");
    ("solve", "csr", 1, 5,
     "solve.diagonal", "diagonal", 1, "52b81d5f02d2047dada4f5793a2ad7fa");
    ("solve", "csr", 7, 0,
     "solve.triangular", "triangular", 28, "33034bc83a1e6be50ea7ed1f277a4592");
    ("solve", "csr", 7, 5,
     "solve.triangular", "triangular", 28, "a3edb7bb7692cf06cc8eb94618ccd807");
    ("solve", "csr", 24, 0,
     "solve.dense", "csr", 5184, "9c21411a44688f77fefdaa5c408b7908");
    ("solve", "csr", 24, 5,
     "solve.dense", "csr", 5184, "a788ba5d08c5c8080ec8b5c1fa2f4fbc");
    ("solve", "csr", 40, 0,
     "solve.dense", "csr", 22933, "db674e48481f695e59808108b106a4cf");
    ("solve", "csr", 40, 5,
     "solve.dense", "csr", 22933, "ba211d57304368fa0ffb9d54271bd56e");
    ("solve", "csr", 64, 0,
     "solve.dense", "csr", 91477, "69f17d8d1137e4fd528a78bc3eab6cf8");
    ("solve", "csr", 64, 5,
     "solve.dense", "csr", 91477, "10361aadcf65fd09acc4d6527a21d7b5");
    ("matmul", "banded", 24, 2,
     "matmul.banded", "banded", 1644, "f54e561241b7c45264a451ef7df9e2e0");
    ("solve", "symmetric", 64, 5,
     "solve.dense", "symmetric", 91477, "172900ae48ffc8f3092a393a88220c91");
    ("matmul", "triangular", 40, 3,
     "matmul.dense", "triangular", 64000, "02f1b6133fcd51a5ea95504fc7ae2b50");
  ]

let test_numeric_pinned () =
  let server = mkserver () in
  List.iter
    (fun (op, structure, n, seed, kernel, detected, steps, checksum) ->
      let req =
        match op with
        | "matvec" -> Request.Matvec { structure; n; seed }
        | "matmul" -> Request.Matmul { structure; n; seed }
        | _ -> Request.Solve { structure; n; seed }
      in
      let case = Printf.sprintf "%s %s n=%d seed=%d" op structure n seed in
      match (Server.handle server req).Request.rsp_result with
      | Ok (Request.Computed c) ->
        Alcotest.(check string) (case ^ " kernel") kernel c.kernel;
        Alcotest.(check string) (case ^ " detected") detected c.detected;
        Alcotest.(check int) (case ^ " kernel_steps") steps c.steps;
        Alcotest.(check string) (case ^ " checksum") checksum c.checksum
      | Ok _ -> Alcotest.failf "%s: expected a Computed payload" case
      | Error _ -> Alcotest.failf "%s: request failed" case)
    numeric_pins

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
          Alcotest.test_case "numeric literals are parse failures" `Quick
            test_numeric_literals_are_parse_failures;
          Alcotest.test_case "over budget" `Quick test_over_budget;
          Alcotest.test_case "timeout" `Quick test_timeout;
          Alcotest.test_case "process admits each request once" `Quick
            test_process_accounting;
          qtest process_is_map_handle_prop;
          Alcotest.test_case "metrics accounting" `Quick
            test_metrics_accounting;
          Alcotest.test_case "gc counters in stats report" `Quick
            test_report_json_gc ] );
      ( "transparency",
        [ Alcotest.test_case "direct library equivalence" `Quick
            test_direct_library_equivalence;
          Alcotest.test_case "sandboxes keep the shared index" `Quick
            test_sandbox_keeps_shared_index;
          Alcotest.test_case "prove hit accounting" `Quick
            test_prove_hit_accounting;
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
          Alcotest.test_case "answers pinned across commits" `Quick
            test_numeric_pinned;
          Alcotest.test_case "validation and wire defaults" `Quick
            test_numeric_validation;
          Alcotest.test_case "numeric workload mix" `Quick
            test_numeric_workload ] );
      ( "flight",
        [ Alcotest.test_case "config line roundtrip" `Quick
            test_config_line_roundtrip;
          Alcotest.test_case "out-of-range configs rejected" `Quick
            test_config_ranges;
          Alcotest.test_case "replay reports a bad config" `Quick
            test_replay_bad_config;
          Alcotest.test_case "slow log renders span trees" `Quick
            test_slow_log_rendering;
          Alcotest.test_case "dossier capture" `Quick test_flight_dossiers;
          Alcotest.test_case "replay matches recording" `Quick
            test_flight_replay;
          flight_dump_fixpoint_prop ] );
      ( "propagate",
        [ Alcotest.test_case "closure_with agrees with closure" `Quick
            test_propagate_closure_with;
          Alcotest.test_case "registry generation" `Quick
            test_registry_generation;
          Alcotest.test_case "request_key tracks generation" `Quick
            test_request_key_tracks_generation;
          Alcotest.test_case "served closure tracks mutations" `Quick
            test_closure_tracks_registry_mutation ] ) ]
