(* The metric registry: named families of counters, gauges and log-scale
   histograms, each family fanned out by a (sorted) label set. Families
   and series render in first-observation order, so reports and
   expositions are stable across runs.

   Exporters: Prometheus text exposition (counters/gauges as samples,
   histograms as cumulative _bucket/_sum/_count series) and a JSON
   snapshot (histograms as count/sum/min/max plus interpolated
   p50/p90/p99). *)

type kind = Counter | Gauge | Histo

type value =
  | Vnum of float ref (* counter or gauge *)
  | Vhist of Histogram.t

type family = {
  f_name : string;
  f_kind : kind;
  mutable f_help : string;
  f_series : (string, value) Hashtbl.t; (* keyed by rendered label set *)
  mutable f_order : (string * (string * string) list) list; (* key, labels *)
}

type t = {
  families : (string, family) Hashtbl.t;
  mutable order : string list; (* family first-observation order *)
  mutable histogram_of : string -> Histogram.t;
}

let default_histogram () = Histogram.create ()

let create () =
  {
    families = Hashtbl.create 32;
    order = [];
    histogram_of = (fun _ -> default_histogram ());
  }

let set_histogram_factory t f = t.histogram_of <- f

let kind_name = function
  | Counter -> "counter"
  | Gauge -> "gauge"
  | Histo -> "histogram"

let canonical_labels labels =
  List.sort (fun (a, _) (b, _) -> String.compare a b) labels

let label_key labels =
  String.concat ","
    (List.map (fun (k, v) -> k ^ "=" ^ String.escaped v) labels)

let family t ~kind ~name =
  match Hashtbl.find_opt t.families name with
  | Some f ->
    if f.f_kind <> kind then
      invalid_arg
        (Printf.sprintf "Metrics: %s is a %s, used as a %s" name
           (kind_name f.f_kind) (kind_name kind));
    f
  | None ->
    let f =
      { f_name = name; f_kind = kind; f_help = "";
        f_series = Hashtbl.create 4; f_order = [] }
    in
    Hashtbl.add t.families name f;
    t.order <- t.order @ [ name ];
    f

let declare t ~kind ~name ~help =
  let f = family t ~kind ~name in
  f.f_help <- help

let series t ~kind ~name labels =
  let f = family t ~kind ~name in
  let labels = canonical_labels labels in
  let key = label_key labels in
  match Hashtbl.find_opt f.f_series key with
  | Some v -> v
  | None ->
    let v =
      match kind with
      | Counter | Gauge -> Vnum (ref 0.0)
      | Histo -> Vhist (t.histogram_of name)
    in
    Hashtbl.add f.f_series key v;
    f.f_order <- f.f_order @ [ (key, labels) ];
    v

let inc t ?(labels = []) ?(by = 1.0) name =
  match series t ~kind:Counter ~name labels with
  | Vnum r -> r := !r +. by
  | Vhist _ -> assert false

let set t ?(labels = []) name v =
  match series t ~kind:Gauge ~name labels with
  | Vnum r -> r := v
  | Vhist _ -> assert false

let observe t ?(labels = []) name v =
  match series t ~kind:Histo ~name labels with
  | Vhist h -> Histogram.observe h v
  | Vnum _ -> assert false

(* Resolved-series handles: every [inc]/[observe] pays a label sort plus
   a rendered-key allocation to find its series. Hot callers (the
   server's per-request counters) resolve the series once and bump the
   handle directly — the handle stays registered, so expositions see
   every update. *)

let counter_handle t ?(labels = []) name =
  match series t ~kind:Counter ~name labels with
  | Vnum r -> r
  | Vhist _ -> assert false

let histogram_handle t ?(labels = []) name =
  match series t ~kind:Histo ~name labels with
  | Vhist h -> h
  | Vnum _ -> assert false

(* ------------------------------------------------------------------ *)
(* Fleet roll-up                                                       *)
(* ------------------------------------------------------------------ *)

(* Merge per-node registries into a fresh one: counters and gauges add
   (a merged gauge is the fleet sum), histogram series fold through the
   geometry-checked Histogram.merge. Families and series keep first
   appearance order across the inputs, so the merged exposition is as
   stable as each node's; totals are order-independent (property-tested
   in test_telemetry). *)
let merge_all ts =
  let out = create () in
  List.iter
    (fun src ->
      List.iter
        (fun name ->
          let f = Hashtbl.find src.families name in
          let g = family out ~kind:f.f_kind ~name in
          if g.f_help = "" then g.f_help <- f.f_help;
          List.iter
            (fun (key, labels) ->
              match Hashtbl.find_opt f.f_series key with
              | None -> ()
              | Some v -> (
                match (Hashtbl.find_opt g.f_series key, v) with
                | None, Vnum r ->
                  Hashtbl.add g.f_series key (Vnum (ref !r));
                  g.f_order <- g.f_order @ [ (key, labels) ]
                | None, Vhist h ->
                  Hashtbl.add g.f_series key (Vhist (Histogram.copy h));
                  g.f_order <- g.f_order @ [ (key, labels) ]
                | Some (Vnum o), Vnum r -> o := !o +. !r
                | Some (Vhist o), Vhist h ->
                  Hashtbl.replace g.f_series key (Vhist (Histogram.merge o h))
                | Some _, _ ->
                  (* the family-level kind check above rules this out *)
                  assert false))
            f.f_order)
        src.order)
    ts;
  out

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)
(* ------------------------------------------------------------------ *)

let value t ?(labels = []) name =
  match Hashtbl.find_opt t.families name with
  | None -> 0.0
  | Some f -> (
    match Hashtbl.find_opt f.f_series (label_key (canonical_labels labels)) with
    | Some (Vnum r) -> !r
    | Some (Vhist h) -> float_of_int (Histogram.count h)
    | None -> 0.0)

let total t name =
  match Hashtbl.find_opt t.families name with
  | None -> 0.0
  | Some f ->
    Hashtbl.fold
      (fun _ v acc ->
        match v with
        | Vnum r -> acc +. !r
        | Vhist h -> acc +. float_of_int (Histogram.count h))
      f.f_series 0.0

let find_histogram t ?(labels = []) name =
  match Hashtbl.find_opt t.families name with
  | None -> None
  | Some f -> (
    match Hashtbl.find_opt f.f_series (label_key (canonical_labels labels)) with
    | Some (Vhist h) -> Some h
    | Some (Vnum _) | None -> None)

let counter_series t name =
  match Hashtbl.find_opt t.families name with
  | None -> []
  | Some f ->
    List.filter_map
      (fun (key, labels) ->
        match Hashtbl.find_opt f.f_series key with
        | Some (Vnum r) -> Some (labels, !r)
        | _ -> None)
      f.f_order

let families t = t.order

(* Family totals in first-observation order: the cheap whole-registry
   snapshot the flight recorder diffs around a request. *)
let totals t = List.map (fun name -> (name, total t name)) t.order

let clear t =
  Hashtbl.reset t.families;
  t.order <- []

(* ------------------------------------------------------------------ *)
(* Prometheus text exposition                                          *)
(* ------------------------------------------------------------------ *)

let prom_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let prom_labels = function
  | [] -> ""
  | labels ->
    "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (prom_escape v)) labels)
    ^ "}"

let prom_num v =
  if Float.is_nan v then "NaN"
  else if v = infinity then "+Inf"
  else if v = neg_infinity then "-Inf"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%g" v

let to_prometheus t =
  let buf = Buffer.create 1024 in
  List.iter
    (fun name ->
      let f = Hashtbl.find t.families name in
      if f.f_help <> "" then
        Buffer.add_string buf
          (Printf.sprintf "# HELP %s %s\n" name (prom_escape f.f_help));
      Buffer.add_string buf
        (Printf.sprintf "# TYPE %s %s\n" name (kind_name f.f_kind));
      List.iter
        (fun (key, labels) ->
          match Hashtbl.find_opt f.f_series key with
          | Some (Vnum r) ->
            Buffer.add_string buf
              (Printf.sprintf "%s%s %s\n" name (prom_labels labels) (prom_num !r))
          | Some (Vhist h) ->
            let cum = ref 0 in
            Array.iter
              (fun (ub, c) ->
                cum := !cum + c;
                let le = if ub = infinity then "+Inf" else prom_num ub in
                Buffer.add_string buf
                  (Printf.sprintf "%s_bucket%s %d\n" name
                     (prom_labels (labels @ [ ("le", le) ]))
                     !cum))
              (Histogram.buckets h);
            Buffer.add_string buf
              (Printf.sprintf "%s_sum%s %s\n" name (prom_labels labels)
                 (prom_num (Histogram.sum h)));
            Buffer.add_string buf
              (Printf.sprintf "%s_count%s %d\n" name (prom_labels labels)
                 (Histogram.count h))
          | None -> ())
        f.f_order)
    t.order;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* JSON snapshot                                                       *)
(* ------------------------------------------------------------------ *)

let json_labels labels =
  Json.to_string (Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) labels))

let to_json t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\"metrics\":[";
  List.iteri
    (fun i name ->
      if i > 0 then Buffer.add_char buf ',';
      let f = Hashtbl.find t.families name in
      Buffer.add_string buf
        (Printf.sprintf "{\"name\":%s,\"kind\":%s,\"help\":%s,\"series\":["
           (Json.str name)
           (Json.str (kind_name f.f_kind))
           (Json.str f.f_help));
      List.iteri
        (fun j (key, labels) ->
          if j > 0 then Buffer.add_char buf ',';
          match Hashtbl.find_opt f.f_series key with
          | Some (Vnum r) ->
            Buffer.add_string buf
              (Printf.sprintf "{\"labels\":%s,\"value\":%s}" (json_labels labels)
                 (Json.num !r))
          | Some (Vhist h) ->
            Buffer.add_string buf
              (Printf.sprintf
                 "{\"labels\":%s,\"count\":%d,\"sum\":%s,\"min\":%s,\"max\":%s,\
                  \"p50\":%s,\"p90\":%s,\"p99\":%s}"
                 (json_labels labels) (Histogram.count h)
                 (Json.num (Histogram.sum h))
                 (Json.num (Histogram.min_value h))
                 (Json.num (Histogram.max_value h))
                 (Json.num (Histogram.quantile h 0.50))
                 (Json.num (Histogram.quantile h 0.90))
                 (Json.num (Histogram.quantile h 0.99)))
          | None -> ())
        f.f_order;
      Buffer.add_string buf "]}")
    t.order;
  Buffer.add_string buf "]}";
  Buffer.contents buf
