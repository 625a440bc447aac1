(* Tests for gp_telemetry: histogram quantile accuracy (including the
   one-bucket-ratio error bound, property-tested), the metric registry
   and its Prometheus/JSON expositions, deterministic span tracing under
   a manual clock, the global switchboard, and the gp_service veneer.

   The JSON emitters are validated by an actual parser
   ({!Mini_json}), not by substring matching. *)

open Gp_telemetry
open Mini_json

let qtest = QCheck_alcotest.to_alcotest
let parse_json = Mini_json.parse

(* ------------------------------------------------------------------ *)
(* Histogram                                                           *)
(* ------------------------------------------------------------------ *)

(* exact sample quantile: the ceil(q*n)-th smallest observation *)
let exact_quantile samples q =
  let sorted = List.sort Float.compare samples in
  let n = List.length sorted in
  let rank = max 1 (int_of_float (ceil (q *. float_of_int n))) in
  List.nth sorted (rank - 1)

let test_histogram_exact_on_constants () =
  let h = Histogram.create () in
  for _ = 1 to 100 do
    Histogram.observe h 5000.0
  done;
  (* clamping to [min, max] makes constant samples exact *)
  List.iter
    (fun q ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "q=%.2f" q)
        5000.0 (Histogram.quantile h q))
    [ 0.01; 0.5; 0.9; 0.99; 1.0 ];
  Alcotest.(check (float 0.0)) "mean" 5000.0 (Histogram.mean h);
  Alcotest.(check (float 0.0)) "min" 5000.0 (Histogram.min_value h);
  Alcotest.(check (float 0.0)) "max" 5000.0 (Histogram.max_value h)

let test_histogram_known_samples () =
  let samples = List.init 1000 (fun i -> float_of_int (i + 1) *. 100.0) in
  let h = Histogram.create () in
  List.iter (Histogram.observe h) samples;
  let r = Histogram.ratio h in
  List.iter
    (fun q ->
      let exact = exact_quantile samples q in
      let est = Histogram.quantile h q in
      Alcotest.(check bool)
        (Printf.sprintf "q=%.2f within one bucket ratio (est %.0f, exact %.0f)"
           q est exact)
        true
        (est <= exact *. r && est >= exact /. r))
    [ 0.1; 0.25; 0.5; 0.75; 0.9; 0.99 ];
  Alcotest.(check int) "count" 1000 (Histogram.count h);
  Alcotest.(check (float 1e-6)) "sum" (List.fold_left ( +. ) 0.0 samples)
    (Histogram.sum h)

let test_histogram_empty_and_buckets () =
  let h = Histogram.create ~lo:10.0 ~hi:1000.0 ~buckets_per_decade:1 () in
  Alcotest.(check bool) "empty quantile nan" true
    (Float.is_nan (Histogram.quantile h 0.5));
  Alcotest.(check bool) "empty mean nan" true (Float.is_nan (Histogram.mean h));
  let bs = Histogram.buckets h in
  (* bounds 10, 100, +inf *)
  Alcotest.(check int) "bucket count" 3 (Array.length bs);
  Alcotest.(check bool) "last bound inf" true (fst bs.(2) = infinity);
  Histogram.observe h 1e9;
  (* an overflow observation lands in the +inf bucket; quantile clamps to
     the observed max *)
  Alcotest.(check (float 0.0)) "inf bucket clamped" 1e9
    (Histogram.quantile h 1.0);
  Alcotest.(check bool) "create validates" true
    (match Histogram.create ~lo:0.0 () with
    | exception Invalid_argument _ -> true
    | _ -> false)

let sample_gen = QCheck.make ~print:string_of_float QCheck.Gen.(float_range 1.0 1e6)

let histogram_bound_prop =
  qtest
    (QCheck.Test.make
       ~name:"histogram quantile within one bucket ratio of exact" ~count:200
       QCheck.(
         pair
           (list_of_size Gen.(int_range 1 60) sample_gen)
           (make ~print:string_of_float (Gen.float_range 0.01 1.0)))
       (fun (samples, q) ->
         QCheck.assume (samples <> []);
         let h = Histogram.create () in
         List.iter (Histogram.observe h) samples;
         let exact = exact_quantile samples q in
         let est = Histogram.quantile h q in
         let r = Histogram.ratio h in
         est <= exact *. r +. 1e-9 && est >= exact /. r -. 1e-9))

let histogram_monotone_prop =
  qtest
    (QCheck.Test.make ~name:"histogram quantiles are monotone in q" ~count:200
       QCheck.(list_of_size Gen.(int_range 1 60) sample_gen)
       (fun samples ->
         QCheck.assume (samples <> []);
         let h = Histogram.create () in
         List.iter (Histogram.observe h) samples;
         let qs = [ 0.1; 0.3; 0.5; 0.7; 0.9; 1.0 ] in
         let vs = List.map (Histogram.quantile h) qs in
         let rec mono = function
           | a :: (b :: _ as rest) -> a <= b +. 1e-9 && mono rest
           | _ -> true
         in
         mono vs))

let test_histogram_merge_known () =
  let a = Histogram.create () in
  let b = Histogram.create () in
  List.iter (Histogram.observe a) [ 100.0; 200.0; 300.0 ];
  List.iter (Histogram.observe b) [ 1000.0; 2000.0 ];
  let m = Histogram.merge a b in
  Alcotest.(check int) "count exact" 5 (Histogram.count m);
  Alcotest.(check (float 1e-9)) "sum exact" 3600.0 (Histogram.sum m);
  Alcotest.(check (float 0.0)) "min" 100.0 (Histogram.min_value m);
  Alcotest.(check (float 0.0)) "max" 2000.0 (Histogram.max_value m);
  (* inputs untouched *)
  Alcotest.(check int) "a untouched" 3 (Histogram.count a);
  Alcotest.(check int) "b untouched" 2 (Histogram.count b);
  (* mismatched bucket geometry is a programming error *)
  Alcotest.(check bool) "geometry mismatch raises" true
    (match
       Histogram.merge a
         (Histogram.create ~lo:10.0 ~hi:1000.0 ~buckets_per_decade:1 ())
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

let histogram_merge_prop =
  qtest
    (QCheck.Test.make
       ~name:
         "merge: count/sum exact, quantiles within one bucket ratio of the \
          merged sample"
       ~count:200
       QCheck.(
         pair
           (list_of_size Gen.(int_range 0 40) sample_gen)
           (list_of_size Gen.(int_range 0 40) sample_gen))
       (fun (xs, ys) ->
         QCheck.assume (xs <> [] || ys <> []);
         let ha = Histogram.create () in
         let hb = Histogram.create () in
         List.iter (Histogram.observe ha) xs;
         List.iter (Histogram.observe hb) ys;
         let m = Histogram.merge ha hb in
         let all = xs @ ys in
         Histogram.count m = List.length all
         && Float.abs (Histogram.sum m -. List.fold_left ( +. ) 0.0 all)
            <= 1e-6 *. Float.max 1.0 (Histogram.sum m)
         && List.for_all
              (fun q ->
                let exact = exact_quantile all q in
                let est = Histogram.quantile m q in
                let r = Histogram.ratio m in
                est <= exact *. r +. 1e-9 && est >= exact /. r -. 1e-9)
              [ 0.25; 0.5; 0.9; 1.0 ]))

(* Structural equality for merge laws: same geometry, same per-bucket
   counts, same count/sum/extremes (Stdlib.compare so empty nan
   extremes compare equal). *)
let hist_eq a b =
  Histogram.buckets a = Histogram.buckets b
  && Histogram.count a = Histogram.count b
  && Stdlib.compare (Histogram.sum a) (Histogram.sum b) = 0
  && Stdlib.compare (Histogram.min_value a) (Histogram.min_value b) = 0
  && Stdlib.compare (Histogram.max_value a) (Histogram.max_value b) = 0

(* Integer-valued samples: float addition over them is exact, so the
   merge laws hold with = rather than within-epsilon. *)
let int_samples =
  QCheck.(list_of_size Gen.(int_range 0 30)
            (map float_of_int (int_range 1 1_000_000)))

let hist_of samples =
  let h = Histogram.create () in
  List.iter (Histogram.observe h) samples;
  h

let histogram_merge_comm_prop =
  qtest
    (QCheck.Test.make ~name:"merge is commutative" ~count:200
       QCheck.(pair int_samples int_samples)
       (fun (xs, ys) ->
         let a = hist_of xs and b = hist_of ys in
         hist_eq (Histogram.merge a b) (Histogram.merge b a)))

let histogram_merge_assoc_prop =
  qtest
    (QCheck.Test.make ~name:"merge is associative; merge_all folds it"
       ~count:200
       QCheck.(triple int_samples int_samples int_samples)
       (fun (xs, ys, zs) ->
         let a = hist_of xs and b = hist_of ys and c = hist_of zs in
         let l = Histogram.merge (Histogram.merge a b) c in
         let r = Histogram.merge a (Histogram.merge b c) in
         hist_eq l r
         && hist_eq l (Histogram.merge_all [ a; b; c ])
         && hist_eq a (Histogram.merge_all [ a ])))

let test_histogram_merge_all_edges () =
  Alcotest.(check bool) "empty list raises" true
    (match Histogram.merge_all [] with
    | exception Invalid_argument _ -> true
    | _ -> false);
  (* merge_all [h] is an independent copy, not an alias *)
  let h = hist_of [ 10.0; 20.0 ] in
  let c = Histogram.merge_all [ h ] in
  Histogram.observe h 30.0;
  Alcotest.(check int) "original grew" 3 (Histogram.count h);
  Alcotest.(check int) "copy did not" 2 (Histogram.count c)

(* ------------------------------------------------------------------ *)
(* Trace context (the cluster wire piggyback)                          *)
(* ------------------------------------------------------------------ *)

let context_roundtrip_prop =
  qtest
    (QCheck.Test.make ~name:"context renders and parses back" ~count:500
       QCheck.(pair (int_range 0 max_int) (int_range 0 max_int))
       (fun (trace, span) ->
         let c = Context.v ~trace ~span in
         Context.of_string (Context.to_string c) = Some c
         &&
         (* embedded parse: the cursor stops exactly after the context *)
         let buf = Buffer.create 32 in
         Buffer.add_string buf "x:";
         Context.render_into buf c;
         Buffer.add_string buf ",rest";
         let s = Buffer.contents buf in
         match Context.parse_at s ~pos:2 with
         | Some (c', stop) ->
           c' = c && String.sub s stop 5 = ",rest"
         | None -> false))

let test_context_edges () =
  Alcotest.(check bool) "none is none" true (Context.is_none Context.none);
  Alcotest.(check bool) "non-none" false
    (Context.is_none (Context.v ~trace:0 ~span:1));
  List.iter
    (fun s ->
      Alcotest.(check bool) ("rejects " ^ s) true
        (Context.of_string s = None))
    [ ""; "/"; "1/"; "/2"; "a/b"; "1/2/3"; "1/2 "; "-1/2";
      (* digit runs past max_int: rejected, never wrapped *)
      "9223372036854775808/7"; "99999999999999999999/7";
      "4611686018427387904/1"; "7/9223372036854775808" ];
  Alcotest.(check bool) "max_int parses" true
    (Context.of_string (string_of_int max_int ^ "/1")
     = Some (Context.v ~trace:max_int ~span:1))

(* ------------------------------------------------------------------ *)
(* Metrics registry                                                    *)
(* ------------------------------------------------------------------ *)

let test_metrics_counters () =
  let m = Metrics.create () in
  Metrics.inc m "requests";
  Metrics.inc m ~by:2.0 "requests";
  Metrics.inc m ~labels:[ ("kind", "check") ] "by_kind";
  Metrics.inc m ~labels:[ ("kind", "lint") ] ~by:4.0 "by_kind";
  Alcotest.(check (float 0.0)) "unlabelled" 3.0 (Metrics.value m "requests");
  Alcotest.(check (float 0.0)) "labelled" 4.0
    (Metrics.value m ~labels:[ ("kind", "lint") ] "by_kind");
  Alcotest.(check (float 0.0)) "total over labels" 5.0
    (Metrics.total m "by_kind");
  Alcotest.(check (float 0.0)) "unknown is 0" 0.0 (Metrics.value m "nope");
  (* label order must not matter *)
  Metrics.inc m ~labels:[ ("a", "1"); ("b", "2") ] "two";
  Metrics.inc m ~labels:[ ("b", "2"); ("a", "1") ] "two";
  Alcotest.(check (float 0.0)) "canonical labels" 2.0
    (Metrics.value m ~labels:[ ("a", "1"); ("b", "2") ] "two");
  (* a name can hold only one kind *)
  Alcotest.(check bool) "kind clash raises" true
    (match Metrics.set m "requests" 1.0 with
    | exception Invalid_argument _ -> true
    | () -> false)

let test_metrics_prometheus () =
  let m = Metrics.create () in
  Metrics.declare m ~kind:Metrics.Counter ~name:"hits" ~help:"Cache hits.";
  Metrics.inc m ~labels:[ ("cache", "a\"b\n") ] "hits";
  Metrics.set m "queue_depth" 7.0;
  Metrics.observe m "latency" 500.0;
  Metrics.observe m "latency" 123456.0;
  let text = Metrics.to_prometheus m in
  let has needle =
    let nl = String.length needle and tl = String.length text in
    let rec go i = i + nl <= tl && (String.sub text i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "help line" true (has "# HELP hits Cache hits.");
  Alcotest.(check bool) "type line" true (has "# TYPE hits counter");
  Alcotest.(check bool) "escaped label" true
    (has "hits{cache=\"a\\\"b\\n\"} 1");
  Alcotest.(check bool) "gauge sample" true (has "queue_depth 7");
  Alcotest.(check bool) "+Inf bucket" true
    (has "latency_bucket{le=\"+Inf\"} 2");
  Alcotest.(check bool) "histogram count" true (has "latency_count 2");
  (* cumulative buckets: every bucket line's value is <= the +Inf one,
     and the series is non-decreasing top to bottom *)
  let bucket_counts =
    String.split_on_char '\n' text
    |> List.filter_map (fun line ->
           if String.length line > 14 && String.sub line 0 14 = "latency_bucket"
           then
             match String.rindex_opt line ' ' with
             | Some i ->
               float_of_string_opt
                 (String.sub line (i + 1) (String.length line - i - 1))
             | None -> None
           else None)
  in
  let rec nondecreasing = function
    | a :: (b :: _ as rest) -> a <= b && nondecreasing rest
    | _ -> true
  in
  Alcotest.(check bool) "buckets cumulative" true (nondecreasing bucket_counts)

let test_metrics_json () =
  let m = Metrics.create () in
  Metrics.inc m ~labels:[ ("kind", "check") ] "requests";
  Metrics.observe m "latency" 1000.0;
  Metrics.observe m "latency" 100000.0;
  match parse_json (Metrics.to_json m) with
  | exception Bad_json e -> Alcotest.failf "to_json does not parse: %s" e
  | j ->
    let metrics = jlist (Option.get (member "metrics" j)) in
    Alcotest.(check int) "two families" 2 (List.length metrics);
    let latency =
      List.find
        (fun f -> member "name" f = Some (Jstr "latency"))
        metrics
    in
    let series = jlist (Option.get (member "series" latency)) in
    (match series with
    | [ s ] ->
      Alcotest.(check bool) "histogram count" true
        (member "count" s = Some (Jnum 2.0));
      Alcotest.(check bool) "has p50" true (member "p50" s <> None)
    | _ -> Alcotest.fail "expected one latency series")

let test_metrics_totals () =
  let m = Metrics.create () in
  Metrics.inc m ~labels:[ ("kind", "check") ] "requests";
  Metrics.inc m ~labels:[ ("kind", "lint") ] ~by:2.0 "requests";
  Metrics.set m "queue_depth" 7.0;
  Alcotest.(check (list (pair string (float 0.0))))
    "totals in first-observation order"
    [ ("requests", 3.0); ("queue_depth", 7.0) ]
    (Metrics.totals m)

(* ------------------------------------------------------------------ *)
(* Trace                                                               *)
(* ------------------------------------------------------------------ *)

let manual_trace ?(capacity = 16) () =
  Trace.create ~capacity ~clock:(Clock.manual ~step:10.0 ()) ()

let test_trace_nesting_and_durations () =
  let t = manual_trace () in
  let v =
    Trace.with_span t ~name:"root"
      ~attrs:(fun () -> [ ("k", "v") ])
      (fun () ->
        Trace.with_span t ~name:"child" (fun () -> Trace.add_attr t "x" "1");
        17)
  in
  Alcotest.(check int) "value through" 17 v;
  match Trace.spans t with
  | [ child; root ] ->
    (* reads: root start=0, child start=10, child stop=20, root stop=30 *)
    Alcotest.(check string) "child name" "child" child.Trace.sp_name;
    Alcotest.(check (float 0.0)) "child dur" 10.0 child.Trace.sp_dur_ns;
    Alcotest.(check (float 0.0)) "root dur" 30.0 root.Trace.sp_dur_ns;
    Alcotest.(check bool) "parent id" true
      (child.Trace.sp_parent = Some root.Trace.sp_id);
    Alcotest.(check bool) "root has no parent" true
      (root.Trace.sp_parent = None);
    Alcotest.(check bool) "add_attr landed on child" true
      (List.mem ("x", "1") child.Trace.sp_attrs);
    Alcotest.(check bool) "attrs thunk on root" true
      (List.mem ("k", "v") root.Trace.sp_attrs)
  | l -> Alcotest.failf "expected 2 spans, got %d" (List.length l)

let test_trace_exception_safety () =
  let t = manual_trace () in
  (match Trace.with_span t ~name:"boom" (fun () -> failwith "no") with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "exception swallowed");
  match Trace.spans t with
  | [ sp ] ->
    Alcotest.(check bool) "error attr" true
      (List.mem ("error", "true") sp.Trace.sp_attrs);
    (* the stack is clean: a new span is again a root *)
    Trace.with_span t ~name:"after" (fun () -> ());
    let after = List.nth (Trace.spans t) 1 in
    Alcotest.(check bool) "stack popped" true (after.Trace.sp_parent = None)
  | l -> Alcotest.failf "expected 1 span, got %d" (List.length l)

let test_trace_ring_and_marks () =
  let t = manual_trace ~capacity:4 () in
  for i = 1 to 10 do
    Trace.with_span t ~name:(Printf.sprintf "s%d" i) (fun () -> ())
  done;
  Alcotest.(check int) "recorded" 10 (Trace.recorded t);
  Alcotest.(check int) "dropped" 6 (Trace.dropped t);
  let names = List.map (fun s -> s.Trace.sp_name) (Trace.spans t) in
  Alcotest.(check (list string)) "retained oldest-first"
    [ "s7"; "s8"; "s9"; "s10" ] names;
  let m = Trace.mark t in
  Trace.with_span t ~name:"fresh" (fun () -> ());
  Alcotest.(check (list string)) "since mark" [ "fresh" ]
    (List.map (fun s -> s.Trace.sp_name) (Trace.since t m))

let test_trace_chrome_json () =
  let t = manual_trace () in
  Trace.with_span t ~name:"outer" (fun () ->
      Trace.with_span t ~name:"inner \"quoted\"" (fun () -> ()));
  match parse_json (Trace.to_chrome_json t) with
  | exception Bad_json e -> Alcotest.failf "chrome json does not parse: %s" e
  | j ->
    let events = jlist (Option.get (member "traceEvents" j)) in
    (* one process_name metadata event names the lane, then the spans *)
    let metas, spans =
      List.partition (fun e -> member "ph" e = Some (Jstr "M")) events
    in
    Alcotest.(check int) "one metadata event" 1 (List.length metas);
    Alcotest.(check bool) "metadata names the process" true
      (match metas with
      | [ m ] ->
        member "name" m = Some (Jstr "process_name")
        && (match member "args" m with
           | Some args -> member "name" args <> None
           | None -> false)
      | _ -> false);
    Alcotest.(check int) "two span events" 2 (List.length spans);
    List.iter
      (fun e ->
        Alcotest.(check bool) "complete event" true
          (member "ph" e = Some (Jstr "X"));
        Alcotest.(check bool) "has ts" true (member "ts" e <> None);
        Alcotest.(check bool) "has args.span_id" true
          (match member "args" e with
          | Some args -> member "span_id" args <> None
          | None -> false))
      spans;
    (* ts is rebased: the earliest span starts at 0 *)
    let ts =
      List.filter_map
        (fun e -> match member "ts" e with Some (Jnum v) -> Some v | _ -> None)
        spans
    in
    Alcotest.(check (float 0.0)) "rebased ts" 0.0
      (List.fold_left Float.min infinity ts)

(* ------------------------------------------------------------------ *)
(* GC/allocation profiling                                             *)
(* ------------------------------------------------------------------ *)

let test_profile_counters () =
  Alcotest.(check bool) "off by default" false (Profile.is_enabled ());
  Alcotest.(check bool) "sample none when off" true (Profile.sample () = None);
  Profile.with_profiling (fun () ->
      Alcotest.(check bool) "on inside" true (Profile.is_enabled ());
      let before = Option.get (Profile.sample ()) in
      ignore (Sys.opaque_identity (Array.make 50_000 0.0));
      let after = Option.get (Profile.sample ()) in
      let d = Profile.diff ~before ~after in
      (* a 50k-float array is ~400 kB; allow allocator slack downwards *)
      Alcotest.(check bool) "alloc counted" true
        (d.Profile.pc_alloc_bytes >= 350_000.0);
      Alcotest.(check bool) "minor delta nonneg" true (d.Profile.pc_minor >= 0);
      Alcotest.(check bool) "major delta nonneg" true (d.Profile.pc_major >= 0));
  Alcotest.(check bool) "restored off" false (Profile.is_enabled ())

let test_span_gc_accounting () =
  (* profiling off: spans carry no GC delta *)
  Tel.with_installed (fun sink ->
      Tel.with_span ~name:"plain" (fun () -> ());
      match Trace.spans sink.Tel.trace with
      | [ sp ] ->
        Alcotest.(check bool) "no gc when unprofiled" true (sp.Trace.sp_gc = None)
      | l -> Alcotest.failf "expected 1 span, got %d" (List.length l));
  (* profiling on: every span carries a delta, and an allocating span
     shows its allocation *)
  Tel.with_installed ~profile:true (fun sink ->
      Tel.with_span ~name:"alloc" (fun () ->
          ignore (Sys.opaque_identity (Array.make 50_000 0.0)));
      (match Trace.spans sink.Tel.trace with
      | [ sp ] -> (
        match sp.Trace.sp_gc with
        | Some g ->
          Alcotest.(check bool) "alloc attributed to span" true
            (g.Profile.pc_alloc_bytes >= 350_000.0)
        | None -> Alcotest.fail "profiled span lost its gc delta")
      | l -> Alcotest.failf "expected 1 span, got %d" (List.length l));
      (* the chrome export carries the gc args, and still parses *)
      match parse_json (Trace.to_chrome_json sink.Tel.trace) with
      | exception Bad_json e -> Alcotest.failf "chrome json: %s" e
      | j ->
        let events = jlist (Option.get (member "traceEvents" j)) in
        (* span events only — the process_name metadata event has no gc *)
        List.iter
          (fun e ->
            if member "ph" e = Some (Jstr "X") then
              Alcotest.(check bool) "alloc_bytes arg" true
                (match member "args" e with
                | Some args -> member "alloc_bytes" args <> None
                | None -> false))
          events);
  Alcotest.(check bool) "profile restored off" false (Profile.is_enabled ())

(* ------------------------------------------------------------------ *)
(* Folded (collapsed-stack) export                                     *)
(* ------------------------------------------------------------------ *)

let test_folded_output () =
  let t = manual_trace () in
  (* clock reads: root open 0, child open 10, child close 20, root close
     30, solo open 40, solo close 50 *)
  Trace.with_span t ~name:"root" (fun () ->
      Trace.with_span t ~name:"child" (fun () -> ()));
  Trace.with_span t ~name:"solo" (fun () -> ());
  Alcotest.(check string) "folded self-weights"
    "root 20\nroot;child 10\nsolo 10\n" (Trace.to_folded t)

let test_folded_alloc_weight () =
  Tel.with_installed ~profile:true (fun sink ->
      Tel.with_span ~name:"outer" (fun () ->
          Tel.with_span ~name:"inner" (fun () ->
              ignore (Sys.opaque_identity (Array.make 50_000 0.0))));
      let folded = Trace.to_folded ~weight:`Alloc sink.Tel.trace in
      let lines =
        List.filter (fun l -> l <> "") (String.split_on_char '\n' folded)
      in
      Alcotest.(check int) "two stacks" 2 (List.length lines);
      (* the inner stack carries the allocation; every self-weight is a
         nonnegative integer *)
      let weight line =
        match String.rindex_opt line ' ' with
        | Some i ->
          float_of_string (String.sub line (i + 1) (String.length line - i - 1))
        | None -> Alcotest.failf "malformed folded line %S" line
      in
      List.iter
        (fun l -> Alcotest.(check bool) "nonneg weight" true (weight l >= 0.0))
        lines;
      let inner =
        List.find (fun l -> String.length l >= 11 && String.sub l 0 11 = "outer;inner") lines
      in
      Alcotest.(check bool) "inner holds the allocation" true
        (weight inner >= 350_000.0))

(* ------------------------------------------------------------------ *)
(* Flight recorder                                                     *)
(* ------------------------------------------------------------------ *)

let some_spans () =
  let t = manual_trace () in
  Trace.with_span t ~name:"service.request" (fun () ->
      Trace.with_span t ~name:"engine.work" (fun () -> ()));
  Trace.spans t

let mk_dossier ?(id = 0) ?(outcome = "ok") ?(dur = 1.0) ?(spans = []) () =
  { Recorder.do_id = id; do_kind = "optimize";
    do_wire = Lazy.from_val {|{"kind":"x"}|};
    do_generation = 3; do_config = "{}"; do_config_fp = "cfp";
    do_outcome = outcome;
    do_detail = (if outcome = "ok" then "" else "it broke");
    do_cached = false; do_steps = 7; do_dur_ns = dur;
    do_response_fp = Lazy.from_val "rfp";
    do_cache_chain = [ ("rewrites", 1, 2) ]; do_spans = spans;
    do_metric_deltas = [ ("gp_requests_total", 1.0) ] }

let test_recorder_ring_eviction () =
  (* a sustained error burst: every dossier is interesting (spans kept),
     and the ring still only ever holds [capacity] of them *)
  let r = Recorder.create ~capacity:4 ~slowest:2 () in
  for i = 1 to 10 do
    Recorder.record r
      (mk_dossier ~id:i ~outcome:"over-budget" ~spans:(some_spans ()) ())
  done;
  Alcotest.(check int) "recorded" 10 (Recorder.recorded r);
  Alcotest.(check int) "retained" 4 (Recorder.retained r);
  Alcotest.(check int) "dropped" 6 (Recorder.dropped r);
  let ds = Recorder.dossiers r in
  Alcotest.(check (list int)) "oldest first, newest kept" [ 7; 8; 9; 10 ]
    (List.map (fun d -> d.Recorder.do_id) ds);
  List.iter
    (fun d ->
      Alcotest.(check bool) "error dossiers keep spans" true
        (d.Recorder.do_spans <> []))
    ds;
  Recorder.clear r;
  Alcotest.(check int) "cleared" 0 (Recorder.recorded r);
  Alcotest.(check bool) "create validates" true
    (match Recorder.create ~capacity:0 () with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_recorder_slowest_k () =
  (* streaming top-k: an ok dossier keeps its spans only if it ranks
     among the k slowest seen so far at the moment it is recorded *)
  let r = Recorder.create ~capacity:8 ~slowest:1 () in
  Recorder.record r (mk_dossier ~id:1 ~dur:5.0 ~spans:(some_spans ()) ());
  Recorder.record r (mk_dossier ~id:2 ~dur:9.0 ~spans:(some_spans ()) ());
  Recorder.record r (mk_dossier ~id:3 ~dur:3.0 ~spans:(some_spans ()) ());
  (match Recorder.dossiers r with
  | [ a; b; c ] ->
    Alcotest.(check bool) "first qualifies (empty top-k)" true
      (a.Recorder.do_spans <> []);
    Alcotest.(check bool) "slower still qualifies" true
      (b.Recorder.do_spans <> []);
    Alcotest.(check bool) "fast ok dossier stripped" true
      (c.Recorder.do_spans = [] && c.Recorder.do_metric_deltas = []);
    Alcotest.(check bool) "stripped dossier keeps its summary" true
      (c.Recorder.do_cache_chain <> []
      && Lazy.force c.Recorder.do_response_fp = "rfp")
  | l -> Alcotest.failf "expected 3 dossiers, got %d" (List.length l));
  (* slowest:0 disables the top-k path entirely; errors still qualify *)
  let r0 = Recorder.create ~capacity:8 ~slowest:0 () in
  Recorder.record r0 (mk_dossier ~id:1 ~dur:99.0 ~spans:(some_spans ()) ());
  Recorder.record r0
    (mk_dossier ~id:2 ~outcome:"timeout" ~dur:1.0 ~spans:(some_spans ()) ());
  match Recorder.dossiers r0 with
  | [ ok_d; err_d ] ->
    Alcotest.(check bool) "ok stripped with k=0" true
      (ok_d.Recorder.do_spans = []);
    Alcotest.(check bool) "error kept with k=0" true
      (err_d.Recorder.do_spans <> [])
  | l -> Alcotest.failf "expected 2 dossiers, got %d" (List.length l)

let test_recorder_jsonl () =
  let r = Recorder.create ~capacity:8 ~slowest:0 () in
  Recorder.record r
    (mk_dossier ~id:1 ~outcome:"over-budget" ~dur:5.5
       ~spans:(some_spans ()) ());
  Recorder.record r (mk_dossier ~id:2 ~dur:1.0 ());
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' (Recorder.to_jsonl r))
  in
  Alcotest.(check int) "one line per dossier" 2 (List.length lines);
  match List.map parse_json lines with
  | exception Bad_json e -> Alcotest.failf "dossier json does not parse: %s" e
  | [ d1; d2 ] ->
    Alcotest.(check bool) "outcome" true
      (member "outcome" d1 = Some (Jstr "over-budget"));
    Alcotest.(check bool) "id" true (member "id" d1 = Some (Jnum 1.0));
    Alcotest.(check bool) "config_fp" true
      (member "config_fp" d1 = Some (Jstr "cfp"));
    (match member "spans" d1 with
    | Some spans ->
      let spans = jlist spans in
      Alcotest.(check int) "span tree retained" 2 (List.length spans);
      List.iter
        (fun sp ->
          Alcotest.(check bool) "span has name" true (member "name" sp <> None);
          Alcotest.(check bool) "span has dur_ns" true
            (member "dur_ns" sp <> None))
        spans
    | None -> Alcotest.fail "no spans array");
    (match member "cache_chain" d1 with
    | Some chain -> (
      match jlist chain with
      | [ entry ] ->
        Alcotest.(check bool) "chain cache name" true
          (member "cache" entry = Some (Jstr "rewrites"));
        Alcotest.(check bool) "chain misses" true
          (member "misses" entry = Some (Jnum 2.0))
      | l -> Alcotest.failf "expected 1 chain entry, got %d" (List.length l))
    | None -> Alcotest.fail "no cache_chain array");
    Alcotest.(check bool) "boring dossier has empty spans" true
      (match member "spans" d2 with Some l -> jlist l = [] | None -> false)
  | _ -> Alcotest.fail "expected two parsed lines"

(* ------------------------------------------------------------------ *)
(* The switchboard                                                     *)
(* ------------------------------------------------------------------ *)

let test_tel_disabled_noops () =
  Alcotest.(check bool) "default off" false (Tel.is_enabled ());
  (* all no-ops, nothing raises, values flow through *)
  Alcotest.(check int) "with_span passthrough" 3
    (Tel.with_span ~name:"x" (fun () -> 3));
  Tel.count "c" 1;
  Tel.observe "h" 1.0;
  Tel.attr "k" "v";
  Alcotest.(check (list reject)) "no spans" []
    (Tel.spans_since (Tel.mark ()));
  Alcotest.(check bool) "no sink" true (Tel.current () = None)

let test_tel_with_installed () =
  let captured =
    Tel.with_installed ~clock:(Clock.manual ~step:5.0 ()) (fun sink ->
        Alcotest.(check bool) "enabled inside" true (Tel.is_enabled ());
        Tel.with_span ~name:"work" (fun () -> Tel.count "c" 2);
        Alcotest.(check (float 0.0)) "counter visible" 2.0
          (Metrics.value sink.Tel.metrics "c");
        Trace.spans sink.Tel.trace)
  in
  Alcotest.(check int) "span captured" 1 (List.length captured);
  Alcotest.(check bool) "restored off" false (Tel.is_enabled ());
  (* exception-safe restore *)
  (match
     Tel.with_installed (fun _ -> failwith "boom") with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "exception swallowed");
  Alcotest.(check bool) "restored off after raise" false (Tel.is_enabled ())

(* ------------------------------------------------------------------ *)
(* The gp_service veneer                                               *)
(* ------------------------------------------------------------------ *)

let test_service_veneer_report () =
  let open Gp_service in
  let m = Metrics.create () in
  (* 100 known latencies for one kind: 1..100 ms *)
  for i = 1 to 100 do
    Metrics.observe m ~kind:"check" ~ok:true ~error_code:None ~cached:(i <= 25)
      ~ns:(float_of_int i *. 1e6)
  done;
  Metrics.observe m ~kind:"lint" ~ok:false ~error_code:(Some "timeout")
    ~cached:false ~ns:5e6;
  Alcotest.(check int) "requests" 101 (Metrics.requests m);
  Alcotest.(check int) "errors" 1 (Metrics.errors m);
  (* the interpolated quantiles against the exact ones: within one bucket
     ratio (5 buckets/decade -> ~1.585x) *)
  let h =
    Option.get
      (Gp_telemetry.Metrics.find_histogram (Metrics.registry m)
         ~labels:[ ("kind", "check") ] "gp_request_latency_ns")
  in
  let samples = List.init 100 (fun i -> float_of_int (i + 1) *. 1e6) in
  let r = Gp_telemetry.Histogram.ratio h in
  List.iter
    (fun q ->
      let exact = exact_quantile samples q in
      let est = Gp_telemetry.Histogram.quantile h q in
      Alcotest.(check bool)
        (Printf.sprintf "service p%.0f within ratio" (q *. 100.0))
        true
        (est <= exact *. r && est >= exact /. r))
    [ 0.5; 0.9; 0.99 ];
  let report = Metrics.report m in
  Alcotest.(check bool) "report mentions both kinds" true
    (let has needle =
       let nl = String.length needle and tl = String.length report in
       let rec go i =
         i + nl <= tl && (String.sub report i nl = needle || go (i + 1))
       in
       go 0
     in
     has "check" && has "lint" && has "timeout")

let test_service_report_json () =
  let open Gp_service in
  let m = Metrics.create () in
  Metrics.observe m ~kind:"prove" ~ok:true ~error_code:None ~cached:false
    ~ns:1e6;
  match parse_json (Metrics.report_json m) with
  | exception Bad_json e -> Alcotest.failf "report_json does not parse: %s" e
  | j ->
    Alcotest.(check bool) "requests field" true
      (member "requests" j = Some (Jnum 1.0));
    Alcotest.(check bool) "registry dump present" true
      (match member "registry" j with
      | Some reg -> member "metrics" reg <> None
      | None -> false)

let test_server_slow_log_and_json () =
  let open Gp_service in
  let server =
    Server.create
      ~config:{ Server.default_config with slow_log = 2 }
      ~declare_standard:Gp_standard.Standard.declare ()
  in
  let req =
    match Wire.request_of_line {|{"kind":"optimize","expr":"x*1 + 0"}|} with
    | Ok (_, r) -> r
    | Error e -> Alcotest.failf "wire: %s" e
  in
  (* without a sink: no slow log entries *)
  ignore (Server.handle server req);
  Alcotest.(check int) "slow log empty when disabled" 0
    (List.length (Server.slow_requests server));
  Tel.with_installed (fun _ ->
      for _ = 1 to 5 do
        ignore (Server.handle server req)
      done);
  let slow = Server.slow_requests server in
  Alcotest.(check int) "slow log capped" 2 (List.length slow);
  List.iter
    (fun e ->
      Alcotest.(check string) "kind" "optimize" e.Server.se_kind;
      match e.Server.se_spans with
      | root :: _ ->
        Alcotest.(check string) "root span" "service.request"
          root.Trace.sp_name
      | [] -> Alcotest.fail "no spans captured")
    slow;
  (match slow with
  | a :: b :: _ ->
    Alcotest.(check bool) "sorted slowest first" true
      (a.Server.se_ns >= b.Server.se_ns)
  | _ -> ());
  match parse_json (Server.report_json server) with
  | exception Bad_json e ->
    Alcotest.failf "server report_json does not parse: %s" e
  | j ->
    Alcotest.(check bool) "served count" true
      (member "requests" j = Some (Jnum 6.0))

(* ------------------------------------------------------------------ *)
(* Fleet roll-up: Metrics.merge_all                                    *)
(* ------------------------------------------------------------------ *)

let test_metrics_merge_all () =
  let a = Metrics.create () in
  let b = Metrics.create () in
  Metrics.declare a ~kind:Metrics.Counter ~name:"serves" ~help:"Serves.";
  Metrics.inc a ~by:3.0 "serves";
  Metrics.inc b ~by:4.0 "serves";
  Metrics.inc b ~labels:[ ("key", "k1") ] "by_key";
  Metrics.inc a ~labels:[ ("key", "k1") ] ~by:2.0 "by_key";
  Metrics.inc a ~labels:[ ("key", "k2") ] "by_key";
  Metrics.observe a "lat" 100.0;
  Metrics.observe a "lat" 200.0;
  Metrics.observe b "lat" 1000.0;
  let m = Metrics.merge_all [ a; b ] in
  Alcotest.(check (float 0.0)) "counters add" 7.0 (Metrics.value m "serves");
  Alcotest.(check (float 0.0)) "labelled series add" 3.0
    (Metrics.value m ~labels:[ ("key", "k1") ] "by_key");
  Alcotest.(check (float 0.0)) "one-sided series kept" 1.0
    (Metrics.value m ~labels:[ ("key", "k2") ] "by_key");
  (match Metrics.find_histogram m "lat" with
  | None -> Alcotest.fail "merged histogram missing"
  | Some h ->
    Alcotest.(check int) "histogram counts add" 3 (Histogram.count h);
    Alcotest.(check (float 1e-9)) "histogram sums add" 1300.0
      (Histogram.sum h));
  (* inputs untouched, merged registry independent *)
  Metrics.inc m "serves";
  Alcotest.(check (float 0.0)) "input a untouched" 3.0
    (Metrics.value a "serves");
  (* order independence of the totals *)
  let m2 = Metrics.merge_all [ b; a ] in
  Alcotest.(check (float 0.0)) "order-independent total" 7.0
    (Metrics.value m2 "serves");
  (* kind clash across registries is a programming error *)
  let c = Metrics.create () in
  Metrics.set c "serves" 1.0;
  Alcotest.(check bool) "cross-registry kind clash raises" true
    (match Metrics.merge_all [ a; c ] with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* The JSON module and the span codec                                  *)
(* ------------------------------------------------------------------ *)

(* Any byte string: quotes, backslashes, control characters and
   non-ASCII bytes all go through the escaper and back. *)
let gen_json_string =
  QCheck.Gen.(
    oneof
      [ string_size ~gen:char (int_bound 12);
        string_size ~gen:(oneofl [ '"'; '\\'; '\n'; '\t'; '\r'; '\001'; '\031'; 'a'; '/' ])
          (int_bound 6) ])

(* Values without Float (to_string prints floats with %g, which is not
   lossless). Objects get distinct keys: the parser rejects repeats. *)
let gen_json =
  QCheck.Gen.(
    sized
    @@ fix (fun self n ->
           let leaf =
             oneof
               [ return Json.Null; map (fun b -> Json.Bool b) bool;
                 map (fun i -> Json.Int i)
                   (oneof [ int; oneofl [ min_int; max_int; 0; -1 ] ]);
                 map (fun s -> Json.Str s) gen_json_string ]
           in
           if n <= 0 then leaf
           else
             frequency
               [ (2, leaf);
                 (1, map (fun vs -> Json.Arr vs)
                       (list_size (int_bound 4) (self (n / 3))));
                 (1, map
                       (fun kvs ->
                         Json.Obj
                           (List.sort_uniq
                              (fun (a, _) (b, _) -> String.compare a b)
                              kvs))
                       (list_size (int_bound 4)
                          (pair gen_json_string (self (n / 3)))));
                 (* a deep chain of one-element arrays and objects *)
                 (1, map2
                       (fun depth v ->
                         let rec wrap d v =
                           if d = 0 then v
                           else
                             wrap (d - 1)
                               (if d mod 2 = 0 then Json.Arr [ v ]
                                else Json.Obj [ ("k", v) ])
                         in
                         wrap depth v)
                       (int_bound 300) leaf) ]))

let json_roundtrip_prop =
  qtest
    (QCheck.Test.make ~name:"json parse inverts to_string without floats"
       ~count:500
       (QCheck.make ~print:Json.to_string gen_json)
       (fun v -> Json.parse (Json.to_string v) = v))

let gen_span =
  QCheck.Gen.(
    let num = oneof [ float; return Float.nan; return 0.0; float_bound_inclusive 1e9 ] in
    let* sp_id = int_bound 100_000 in
    let* sp_parent = opt (int_bound 100_000) in
    let* sp_name = gen_json_string in
    let* sp_start_ns = num in
    let* sp_dur_ns = num in
    let* sp_attrs =
      map
        (List.sort_uniq (fun (a, _) (b, _) -> String.compare a b))
        (list_size (int_bound 3) (pair gen_json_string gen_json_string))
    in
    let+ sp_gc =
      opt
        (let* pc_alloc_bytes = num in
         let* pc_minor = int_bound 1000 in
         let+ pc_major = int_bound 10 in
         { Profile.pc_alloc_bytes; pc_minor; pc_major })
    in
    { Trace.sp_id; sp_parent; sp_name; sp_start_ns; sp_dur_ns; sp_attrs;
      sp_gc })

(* Decoding reads the six-digit floats the encoder wrote, so encoding
   the decoded span must give back the same line. Attribute keys are
   distinct, as the spans the tracer records have them. *)
let span_fixpoint_prop =
  qtest
    (QCheck.Test.make ~name:"span json is a fixpoint of decode" ~count:500
       (QCheck.make ~print:Trace.span_to_json gen_span)
       (fun sp ->
         let line = Trace.span_to_json sp in
         String.equal line
           (Trace.span_to_json (Trace.span_of_json (Json.parse line)))))

let () =
  Alcotest.run "gp_telemetry"
    [
      ( "histogram",
        [
          Alcotest.test_case "constant samples exact" `Quick
            test_histogram_exact_on_constants;
          Alcotest.test_case "known samples within ratio" `Quick
            test_histogram_known_samples;
          Alcotest.test_case "empty + buckets + overflow" `Quick
            test_histogram_empty_and_buckets;
          Alcotest.test_case "merge known histograms" `Quick
            test_histogram_merge_known;
          histogram_bound_prop;
          histogram_monotone_prop;
          histogram_merge_prop;
          histogram_merge_comm_prop;
          histogram_merge_assoc_prop;
          Alcotest.test_case "merge_all edges" `Quick
            test_histogram_merge_all_edges;
        ] );
      ( "json",
        [ json_roundtrip_prop; span_fixpoint_prop ] );
      ( "context",
        [
          context_roundtrip_prop;
          Alcotest.test_case "none and rejects" `Quick test_context_edges;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counters and labels" `Quick test_metrics_counters;
          Alcotest.test_case "prometheus exposition" `Quick
            test_metrics_prometheus;
          Alcotest.test_case "json exposition" `Quick test_metrics_json;
          Alcotest.test_case "family totals" `Quick test_metrics_totals;
          Alcotest.test_case "fleet merge_all" `Quick test_metrics_merge_all;
        ] );
      ( "trace",
        [
          Alcotest.test_case "nesting and durations" `Quick
            test_trace_nesting_and_durations;
          Alcotest.test_case "exception safety" `Quick
            test_trace_exception_safety;
          Alcotest.test_case "ring and marks" `Quick test_trace_ring_and_marks;
          Alcotest.test_case "chrome trace json" `Quick test_trace_chrome_json;
          Alcotest.test_case "folded export" `Quick test_folded_output;
          Alcotest.test_case "folded alloc weight" `Quick
            test_folded_alloc_weight;
        ] );
      ( "profile",
        [
          Alcotest.test_case "gc counters" `Quick test_profile_counters;
          Alcotest.test_case "span gc accounting" `Quick
            test_span_gc_accounting;
        ] );
      ( "recorder",
        [
          Alcotest.test_case "ring eviction under error bursts" `Quick
            test_recorder_ring_eviction;
          Alcotest.test_case "slowest-k retention" `Quick
            test_recorder_slowest_k;
          Alcotest.test_case "jsonl export parses" `Quick test_recorder_jsonl;
        ] );
      ( "switchboard",
        [
          Alcotest.test_case "disabled no-ops" `Quick test_tel_disabled_noops;
          Alcotest.test_case "with_installed" `Quick test_tel_with_installed;
        ] );
      ( "service veneer",
        [
          Alcotest.test_case "report quantiles" `Quick
            test_service_veneer_report;
          Alcotest.test_case "report_json" `Quick test_service_report_json;
          Alcotest.test_case "server slow log + json" `Quick
            test_server_slow_log_and_json;
        ] );
    ]
