(* Format validator for the telemetry exports, run under `dune runtest`
   against real `gp trace` / `gp serve --flight` output (see test/dune).
   Invoked as alternating KIND FILE pairs, e.g.

     test_telemetry_formats trace t.json prom m.prom flight f.jsonl folded f.txt

   - trace: the Chrome trace-event JSON must parse, every event must be
     a well-formed complete event, and the spans must cover all four
     instrumented subsystems plus the concept checker;
   - prom: the Prometheus exposition must be line-well-formed: HELP/TYPE
     comments or `name{labels} value` samples, histogram bucket series
     cumulative and +Inf-terminated, `_count` equal to the +Inf bucket;
   - flight: every JSONL dossier line must parse and carry the full
     field set, and at least one non-ok dossier must retain its span
     tree;
   - folded: every collapsed-stack line must be `stack<space>weight`
     with a non-negative numeric weight;
   - slowest: the stderr of `gp serve --trace` must hold one `slowest
     requests` block of 8 entries (the default flight_slowest), each
     `#id kind duration` line followed by its `service.request` root.

   Exits non-zero with a diagnostic on the first violation. *)

open Mini_json

let fail fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 1) fmt

let read_file path =
  try In_channel.with_open_text path In_channel.input_all
  with Sys_error e -> fail "cannot read %s: %s" path e

(* ------------------------------------------------------------------ *)
(* Chrome trace                                                        *)
(* ------------------------------------------------------------------ *)

(* [gp trace all] must name every instrumented stage, the serving path's
   sandbox build included *)
let required_spans =
  [ "concepts.check"; "concepts.closure"; "stllint.check";
    "simplicissimus.rewrite"; "distsim.run"; "service.request";
    "service.sandbox" ]

(* Shared structural checks: every event is either a complete (ph:X)
   event with sane ts/dur or a process_name metadata (ph:M) event, and
   every X event's pid lane is named by exactly such an M event.
   Returns (X events, lane pids). *)
let check_events path events =
  if events = [] then fail "%s: empty trace" path;
  let named_pids = ref [] in
  let xs = ref [] in
  List.iteri
    (fun i e ->
      let field k =
        match member k e with
        | Some v -> v
        | None -> fail "%s: event %d lacks %S" path i k
      in
      let pid =
        match field "pid" with
        | Jnum p -> p
        | _ -> fail "%s: event %d has a bad pid" path i
      in
      match field "ph" with
      | Jstr "M" ->
        (match field "name" with
        | Jstr "process_name" -> ()
        | _ -> fail "%s: metadata event %d is not process_name" path i);
        (match member "args" e with
        | Some (Jobj _ as args) when member "name" args <> None -> ()
        | _ -> fail "%s: metadata event %d lacks args.name" path i);
        if List.mem pid !named_pids then
          fail "%s: pid %g named twice" path pid;
        named_pids := pid :: !named_pids
      | Jstr "X" ->
        (match (field "ts", field "dur") with
        | Jnum ts, Jnum dur when ts >= 0.0 && dur >= 0.0 -> ()
        | _ -> fail "%s: event %d has bad ts/dur" path i);
        (match (field "name", member "args" e) with
        | Jstr _, Some (Jobj _) -> ()
        | _ -> fail "%s: event %d has bad name/args" path i);
        xs := (pid, e) :: !xs
      | _ -> fail "%s: event %d is neither complete nor metadata" path i)
    events;
  let xs = List.rev !xs in
  List.iteri
    (fun i (pid, _) ->
      if not (List.mem pid !named_pids) then
        fail "%s: event %d in unnamed pid lane %g" path i pid)
    xs;
  (List.map snd xs, List.sort_uniq compare !named_pids)

let parse_events path =
  let j =
    match parse (read_file path) with
    | j -> j
    | exception Bad_json e -> fail "%s: invalid JSON: %s" path e
  in
  match member "traceEvents" j with
  | Some (Jlist l) -> l
  | _ -> fail "%s: no traceEvents array" path

let validate_trace path =
  let spans, _ = check_events path (parse_events path) in
  let names =
    List.filter_map
      (fun e -> match member "name" e with Some (Jstr s) -> Some s | _ -> None)
      spans
  in
  List.iter
    (fun want ->
      if not (List.mem want names) then
        fail "%s: no %S span — subsystem not covered" path want)
    required_spans;
  Printf.printf "trace ok: %s, %d events, spans cover %s\n" path
    (List.length spans)
    (String.concat " " required_spans)

(* A cluster trace export: same structural rules, but the point is the
   lane layout — several pids, one per node, each named, each holding
   spans. *)
let validate_lanes path =
  let spans, pids = check_events path (parse_events path) in
  if List.length pids < 2 then
    fail "%s: expected one pid lane per cluster node, got %d" path
      (List.length pids);
  List.iter
    (fun pid ->
      if
        not
          (List.exists
             (fun e ->
               match member "pid" e with
               | Some (Jnum p) -> p = pid
               | _ -> false)
             spans)
      then fail "%s: pid lane %g is named but empty" path pid)
    pids;
  Printf.printf "lanes ok: %s, %d events across %d node lanes\n" path
    (List.length spans) (List.length pids)

(* ------------------------------------------------------------------ *)
(* Prometheus exposition                                               *)
(* ------------------------------------------------------------------ *)

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* Split a sample line into (metric name, labels minus le, le, value).
   Label values in this toolchain never contain commas or braces, so a
   comma split is exact here. *)
let parse_sample path lineno line =
  let sp =
    match String.rindex_opt line ' ' with
    | Some i -> i
    | None -> fail "%s:%d: no value separator: %s" path lineno line
  in
  let series = String.sub line 0 sp in
  let value =
    match
      float_of_string_opt (String.sub line (sp + 1) (String.length line - sp - 1))
    with
    | Some v -> v
    | None -> fail "%s:%d: unparseable value: %s" path lineno line
  in
  let name, labels =
    match String.index_opt series '{' with
    | None -> (series, "")
    | Some i ->
      if series.[String.length series - 1] <> '}' then
        fail "%s:%d: unterminated label set: %s" path lineno line;
      ( String.sub series 0 i,
        String.sub series (i + 1) (String.length series - i - 2) )
  in
  if name = "" then fail "%s:%d: empty metric name: %s" path lineno line;
  let parts =
    if labels = "" then [] else String.split_on_char ',' labels
  in
  let le, rest =
    List.partition (fun p -> starts_with "le=\"" p) parts
  in
  let le =
    match le with
    | [ l ] ->
      (* strip le=" ... " *)
      Some (String.sub l 4 (String.length l - 5))
    | [] -> None
    | _ -> fail "%s:%d: duplicate le label: %s" path lineno line
  in
  (name, String.concat "," rest, le, value)

let validate_prometheus path =
  let lines = String.split_on_char '\n' (read_file path) in
  let samples = ref [] in
  List.iteri
    (fun i line ->
      let lineno = i + 1 in
      if line = "" then ()
      else if starts_with "# HELP " line || starts_with "# TYPE " line then begin
        if starts_with "# TYPE " line then
          let kind =
            match String.rindex_opt line ' ' with
            | Some j -> String.sub line (j + 1) (String.length line - j - 1)
            | None -> ""
          in
          if not (List.mem kind [ "counter"; "gauge"; "histogram" ]) then
            fail "%s:%d: unknown TYPE %S" path lineno kind
      end
      else if starts_with "#" line then
        fail "%s:%d: stray comment: %s" path lineno line
      else samples := parse_sample path lineno line :: !samples)
    lines;
  let samples = List.rev !samples in
  if samples = [] then fail "%s: no samples" path;
  (* histogram invariants per bucket series — one series is a (family,
     other-labels) pair, e.g. gp_distsim_finish_time{algorithm="lcr"} *)
  let bucket_families =
    List.filter_map
      (fun (n, lbls, le, _) ->
        if le <> None && Filename.check_suffix n "_bucket" then
          Some (Filename.chop_suffix n "_bucket", lbls)
        else None)
      samples
    |> List.sort_uniq compare
  in
  List.iter
    (fun (fam, lbls) ->
      let pretty = if lbls = "" then fam else fam ^ "{" ^ lbls ^ "}" in
      let buckets =
        List.filter_map
          (fun (n, l, le, v) ->
            if n = fam ^ "_bucket" && l = lbls then
              match le with Some le -> Some (le, v) | None -> None
            else None)
          samples
      in
      let rec check_cumulative = function
        | (_, a) :: ((_, b) :: _ as rest) ->
          if a > b then fail "%s: %s buckets not cumulative" path pretty;
          check_cumulative rest
        | _ -> ()
      in
      check_cumulative buckets;
      let inf_count =
        match List.assoc_opt "+Inf" buckets with
        | Some v -> v
        | None -> fail "%s: %s has no +Inf bucket" path pretty
      in
      match
        List.find_opt
          (fun (n, l, le, _) -> n = fam ^ "_count" && l = lbls && le = None)
          samples
      with
      | Some (_, _, _, c) when c = inf_count -> ()
      | Some (_, _, _, c) ->
        fail "%s: %s_count %g <> +Inf bucket %g" path pretty c inf_count
      | None -> fail "%s: %s has no _count sample" path pretty)
    bucket_families;
  Printf.printf "prometheus ok: %s, %d samples, %d histogram families\n" path
    (List.length samples)
    (List.length bucket_families)

(* ------------------------------------------------------------------ *)
(* Flight-recorder JSONL dump                                          *)
(* ------------------------------------------------------------------ *)

let dossier_fields =
  [ "id"; "kind"; "wire"; "generation"; "config"; "config_fp"; "outcome";
    "detail"; "cached"; "steps"; "dur_ns"; "response_fp"; "cache_chain";
    "spans" ]

let validate_flight path =
  let lines =
    String.split_on_char '\n' (read_file path)
    |> List.filter (fun l -> l <> "")
  in
  if lines = [] then fail "%s: empty flight dump" path;
  let error_spans = ref 0 in
  List.iteri
    (fun i line ->
      let lineno = i + 1 in
      let j =
        match parse line with
        | j -> j
        | exception Bad_json e -> fail "%s:%d: invalid JSON: %s" path lineno e
      in
      List.iter
        (fun k ->
          if member k j = None then
            fail "%s:%d: dossier lacks %S" path lineno k)
        dossier_fields;
      (match (member "outcome" j, member "spans" j) with
      | Some (Jstr o), Some (Jlist spans) ->
        if o <> "ok" && spans <> [] then incr error_spans;
        List.iter
          (fun sp ->
            match (member "name" sp, member "dur_ns" sp) with
            | Some (Jstr _), Some (Jnum d) when d >= 0.0 -> ()
            | _ -> fail "%s:%d: malformed span" path lineno)
          spans
      | _ -> fail "%s:%d: bad outcome/spans" path lineno);
      match member "cache_chain" j with
      | Some (Jlist chain) ->
        List.iter
          (fun link ->
            match (member "cache" link, member "hits" link, member "misses" link)
            with
            | Some (Jstr _), Some (Jnum _), Some (Jnum _) -> ()
            | _ -> fail "%s:%d: malformed cache_chain link" path lineno)
          chain
      | _ -> fail "%s:%d: cache_chain is not an array" path lineno)
    lines;
  if !error_spans = 0 then
    fail "%s: no non-ok dossier retained its span tree" path;
  Printf.printf "flight ok: %s, %d dossiers, %d error span trees\n" path
    (List.length lines) !error_spans

(* ------------------------------------------------------------------ *)
(* Folded (collapsed-stack) profile                                    *)
(* ------------------------------------------------------------------ *)

let validate_folded path =
  let lines =
    String.split_on_char '\n' (read_file path)
    |> List.filter (fun l -> l <> "")
  in
  if lines = [] then fail "%s: empty folded profile" path;
  List.iteri
    (fun i line ->
      let lineno = i + 1 in
      match String.rindex_opt line ' ' with
      | None -> fail "%s:%d: no weight separator: %s" path lineno line
      | Some sp -> (
        if sp = 0 then fail "%s:%d: empty stack: %s" path lineno line;
        match
          float_of_string_opt
            (String.sub line (sp + 1) (String.length line - sp - 1))
        with
        | Some w when w >= 0.0 -> ()
        | _ -> fail "%s:%d: bad weight: %s" path lineno line))
    lines;
  Printf.printf "folded ok: %s, %d stack lines\n" path (List.length lines)

(* ------------------------------------------------------------------ *)
(* Slowest-requests listing (gp serve --trace stderr)                  *)
(* ------------------------------------------------------------------ *)

let validate_slowest path =
  let lines = String.split_on_char '\n' (read_file path) in
  let headers = List.filter (fun l -> l = "slowest requests") lines in
  if List.length headers <> 1 then
    fail "%s: %d slowest-requests headers, expected 1" path
      (List.length headers);
  let rec entries n = function
    | entry :: root :: rest when starts_with "#" entry ->
      if not (starts_with "service.request " root) then
        fail "%s: entry %S is not rooted at service.request" path entry;
      entries (n + 1) rest
    | entry :: _ when starts_with "#" entry ->
      fail "%s: entry %S has no span tree" path entry
    | _ :: rest -> entries n rest
    | [] -> n
  in
  let n = entries 0 lines in
  if n <> 8 then fail "%s: %d slowest entries, expected 8" path n;
  Printf.printf "slowest ok: %s, %d entries\n" path n

let usage () =
  prerr_endline
    "usage: test_telemetry_formats \
     (trace|lanes|prom|flight|folded|slowest) FILE ...";
  exit 2

let () =
  let rec go = function
    | [] -> ()
    | "trace" :: file :: rest -> validate_trace file; go rest
    | "lanes" :: file :: rest -> validate_lanes file; go rest
    | "prom" :: file :: rest -> validate_prometheus file; go rest
    | "flight" :: file :: rest -> validate_flight file; go rest
    | "folded" :: file :: rest -> validate_folded file; go rest
    | "slowest" :: file :: rest -> validate_slowest file; go rest
    | _ -> usage ()
  in
  match Array.to_list Sys.argv with
  | _ :: (_ :: _ as pairs) -> go pairs
  | _ -> usage ()
