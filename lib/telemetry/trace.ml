(* Span tracing: nested regions timed by the injectable clock, kept in a
   bounded ring buffer (old spans are overwritten, never allocated
   past the capacity), exported as Chrome trace-event JSON.

   Spans close in LIFO order on one thread — the engine and the service
   are single-threaded — so parenthood is the open-span stack. A span is
   recorded at close time; an exception inside [with_span] still records
   the span (tagged error=true) and re-raises. *)

type span = {
  sp_id : int;
  sp_parent : int option;
  sp_name : string;
  sp_start_ns : float;
  sp_dur_ns : float;
  sp_attrs : (string * string) list;
  sp_gc : Profile.counters option; (* Some iff profiling was on at open *)
}

type open_span = {
  o_id : int;
  o_parent : int option;
  o_name : string;
  o_start : float;
  o_gc : Profile.counters option;
  o_attrs : (unit -> (string * string) list) option;
  mutable o_extra : (string * string) list; (* add_attr, reverse order *)
}

type t = {
  clock : Clock.t;
  capacity : int;
  ring : span array; (* slot i holds recorded span (recorded-retained+i) *)
  mutable recorded : int; (* total spans ever recorded *)
  mutable next_id : int;
  mutable stack : open_span list;
}

let dummy =
  { sp_id = 0; sp_parent = None; sp_name = ""; sp_start_ns = 0.0;
    sp_dur_ns = 0.0; sp_attrs = []; sp_gc = None }

let create ?(capacity = 4096) ~clock () =
  if capacity < 1 then invalid_arg "Trace.create: capacity < 1";
  { clock; capacity; ring = Array.make capacity dummy; recorded = 0;
    next_id = 0; stack = [] }

let record t sp =
  t.ring.(t.recorded mod t.capacity) <- sp;
  t.recorded <- t.recorded + 1

let close t o ~error =
  let stop = t.clock () in
  let gc =
    match o.o_gc with
    | None -> None
    | Some before -> (
      match Profile.sample () with
      | Some after -> Some (Profile.diff ~before ~after)
      | None -> None (* profiling turned off mid-span *))
  in
  let attrs =
    (match o.o_attrs with Some f -> f () | None -> [])
    @ List.rev o.o_extra
    @ (if error then [ ("error", "true") ] else [])
  in
  record t
    { sp_id = o.o_id; sp_parent = o.o_parent; sp_name = o.o_name;
      sp_start_ns = o.o_start; sp_dur_ns = Float.max 0.0 (stop -. o.o_start);
      sp_attrs = attrs; sp_gc = gc }

let with_span t ~name ?attrs f =
  t.next_id <- t.next_id + 1;
  let o =
    { o_id = t.next_id;
      o_parent = (match t.stack with o :: _ -> Some o.o_id | [] -> None);
      o_name = name;
      o_start = t.clock ();
      o_gc = Profile.sample ();
      o_attrs = attrs;
      o_extra = [] }
  in
  t.stack <- o :: t.stack;
  let pop () = t.stack <- (match t.stack with _ :: rest -> rest | [] -> []) in
  match f () with
  | v ->
    pop ();
    close t o ~error:false;
    v
  | exception exn ->
    pop ();
    close t o ~error:true;
    raise exn

(* Record an already-timed span, bypassing the open-span stack. The
   cluster's cross-event spans (a request open across many simulated
   deliveries) can't close in LIFO order, so their owner times them and
   emits the finished interval with an explicit parent — and, usually,
   an explicit id drawn from a cluster-global counter so ids stay unique
   across every node's ring. [next_id] is bumped past explicit ids so
   stack spans never collide with emitted ones. *)
let emit t ?id ?parent ~name ~start_ns ~dur_ns ?(attrs = []) () =
  let id =
    match id with
    | Some i ->
      if i > t.next_id then t.next_id <- i;
      i
    | None ->
      t.next_id <- t.next_id + 1;
      t.next_id
  in
  record t
    { sp_id = id; sp_parent = parent; sp_name = name; sp_start_ns = start_ns;
      sp_dur_ns = Float.max 0.0 dur_ns; sp_attrs = attrs; sp_gc = None };
  id

let add_attr t key v =
  match t.stack with
  | o :: _ -> o.o_extra <- (key, v) :: o.o_extra
  | [] -> ()

let retained t = Int.min t.recorded t.capacity
let recorded t = t.recorded
let dropped t = Int.max 0 (t.recorded - t.capacity)

(* Retained spans, oldest first. *)
let spans t =
  let n = retained t in
  List.init n (fun i -> t.ring.((t.recorded - n + i) mod t.capacity))

(* [mark]/[since]: a cursor into the record stream, for per-request span
   capture (the service's slow-request log). *)
let mark t = t.recorded

let since t m =
  let n = retained t in
  let first = Int.max m (t.recorded - n) in
  List.init (t.recorded - first) (fun i ->
      t.ring.((first + i) mod t.capacity))

let clear t =
  t.recorded <- 0;
  t.stack <- []

(* ------------------------------------------------------------------ *)
(* Chrome trace-event export                                           *)
(* ------------------------------------------------------------------ *)

(* One complete ("ph":"X") event per span; ts/dur are microseconds.
   Timestamps are rebased to the earliest span across all lanes — a wall
   clock's epoch nanoseconds would swamp the printer's precision and
   every ts would render identical. Nesting is inferred by the viewer
   from time containment; the span and parent ids also ride along in
   args.

   Each lane is one process ("pid") in the viewer, announced by a
   ph:"M" process_name metadata event — the cluster exporter maps one
   node per lane so cross-node journeys read as parallel swimlanes on
   the shared simulated clock. *)
let to_chrome_json_lanes ?(dropped = 0) lanes =
  let base =
    List.fold_left
      (fun m (_, _, sps) ->
        List.fold_left (fun m sp -> Float.min m sp.sp_start_ns) m sps)
      infinity lanes
  in
  let base = if Float.is_finite base then base else 0.0 in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\":[";
  let first = ref true in
  let comma () =
    if !first then first := false else Buffer.add_char buf ','
  in
  List.iter
    (fun (pid, pname, sps) ->
      comma ();
      Buffer.add_string buf
        (Printf.sprintf
           "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":1,\
            \"args\":{\"name\":%s}}"
           pid (Json.str pname));
      List.iter
        (fun sp ->
          comma ();
          Buffer.add_string buf
            (Printf.sprintf
               "{\"name\":%s,\"ph\":\"X\",\"pid\":%d,\"tid\":1,\"ts\":%s,\
                \"dur\":%s,\"args\":"
               (Json.str sp.sp_name) pid
               (Json.num ((sp.sp_start_ns -. base) /. 1e3))
               (Json.num (sp.sp_dur_ns /. 1e3)));
          let args =
            [ ("span_id", string_of_int sp.sp_id) ]
            @ (match sp.sp_parent with
              | Some p -> [ ("parent_id", string_of_int p) ]
              | None -> [])
            @ (match sp.sp_gc with
              | Some g ->
                [ ("alloc_bytes",
                   Printf.sprintf "%.0f" g.Profile.pc_alloc_bytes);
                  ("minor_gcs", string_of_int g.Profile.pc_minor);
                  ("major_gcs", string_of_int g.Profile.pc_major) ]
              | None -> [])
            @ sp.sp_attrs
          in
          Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) args)
          |> Json.to_string |> Buffer.add_string buf;
          Buffer.add_char buf '}')
        sps)
    lanes;
  Buffer.add_string buf
    (Printf.sprintf "],\"displayTimeUnit\":\"ns\",\"droppedSpans\":%d}"
       dropped);
  Buffer.contents buf

let to_chrome_json t =
  to_chrome_json_lanes ~dropped:(dropped t) [ (1, "gp", spans t) ]

(* ------------------------------------------------------------------ *)
(* Span-tree rendering                                                 *)
(* ------------------------------------------------------------------ *)

let pp_dur ppf ns =
  if Float.is_nan ns then Fmt.string ppf "-"
  else if ns < 1e3 then Fmt.pf ppf "%.0fns" ns
  else if ns < 1e6 then Fmt.pf ppf "%.1fus" (ns /. 1e3)
  else if ns < 1e9 then Fmt.pf ppf "%.2fms" (ns /. 1e6)
  else Fmt.pf ppf "%.2fs" (ns /. 1e9)

(* Render a list of completed spans as an indented forest. Roots are
   spans whose parent is absent from the list (the list may be a window,
   e.g. one request's spans). *)
let pp_tree ppf sps =
  let present = List.map (fun s -> s.sp_id) sps in
  let children p =
    List.filter (fun s -> s.sp_parent = Some p) sps
    |> List.sort (fun a b -> Float.compare a.sp_start_ns b.sp_start_ns)
  in
  let roots =
    List.filter
      (fun s ->
        match s.sp_parent with
        | None -> true
        | Some p -> not (List.mem p present))
      sps
    |> List.sort (fun a b -> Float.compare a.sp_start_ns b.sp_start_ns)
  in
  let rec pp_span depth s =
    Fmt.pf ppf "%s%-*s %a" (String.make (2 * depth) ' ')
      (Int.max 1 (30 - (2 * depth)))
      s.sp_name pp_dur s.sp_dur_ns;
    (match s.sp_gc with
    | Some g ->
      Fmt.pf ppf " alloc=%a minor=%d major=%d" Profile.pp_bytes
        g.Profile.pc_alloc_bytes g.Profile.pc_minor g.Profile.pc_major
    | None -> ());
    List.iter (fun (k, v) -> Fmt.pf ppf " %s=%s" k v) s.sp_attrs;
    Fmt.pf ppf "@.";
    List.iter (pp_span (depth + 1)) (children s.sp_id)
  in
  List.iter (pp_span 0) roots

(* ------------------------------------------------------------------ *)
(* Collapsed-stack ("folded") export                                   *)
(* ------------------------------------------------------------------ *)

(* One "a;b;c weight" line per span, weighted by the span's SELF cost
   (total minus the children's totals) so flamegraph tooling can re-sum
   the hierarchy. Children are indexed by parent in one pass: the export
   runs over full rings, where pp_tree's quadratic scan would hurt. *)
let folded ?(weight = `Dur) sps =
  let weight_of s =
    match weight with
    | `Dur -> s.sp_dur_ns
    | `Alloc -> (
      match s.sp_gc with Some g -> g.Profile.pc_alloc_bytes | None -> 0.0)
  in
  let present = Hashtbl.create 256 in
  List.iter (fun s -> Hashtbl.replace present s.sp_id ()) sps;
  let kids = Hashtbl.create 256 in
  List.iter
    (fun s ->
      match s.sp_parent with
      | Some p when Hashtbl.mem present p ->
        Hashtbl.replace kids p
          (s :: (try Hashtbl.find kids p with Not_found -> []))
      | _ -> ())
    sps;
  let children p =
    (try List.rev (Hashtbl.find kids p) with Not_found -> [])
    |> List.sort (fun a b -> Float.compare a.sp_start_ns b.sp_start_ns)
  in
  let roots =
    List.filter
      (fun s ->
        match s.sp_parent with
        | None -> true
        | Some p -> not (Hashtbl.mem present p))
      sps
  in
  let buf = Buffer.create 4096 in
  let rec go stack s =
    let cs = children s.sp_id in
    let self =
      Float.max 0.0
        (weight_of s -. List.fold_left (fun a c -> a +. weight_of c) 0.0 cs)
    in
    let stack = if stack = "" then s.sp_name else stack ^ ";" ^ s.sp_name in
    Buffer.add_string buf (Printf.sprintf "%s %.0f\n" stack self);
    List.iter (go stack) cs
  in
  List.iter (go "") roots;
  Buffer.contents buf

let to_folded ?weight t = folded ?weight (spans t)

(* ------------------------------------------------------------------ *)
(* Per-span JSON (the flight recorder's dossier format) and back       *)
(* ------------------------------------------------------------------ *)

let span_to_json sp =
  let attrs = List.map (fun (k, v) -> (k, Json.Str v)) sp.sp_attrs in
  Printf.sprintf
    "{\"id\":%d,\"parent\":%s,\"name\":%s,\"start_ns\":%s,\"dur_ns\":%s,\
     \"attrs\":%s,\"gc\":%s}"
    sp.sp_id
    (match sp.sp_parent with None -> "null" | Some p -> string_of_int p)
    (Json.str sp.sp_name)
    (Json.num sp.sp_start_ns)
    (Json.num sp.sp_dur_ns)
    (Json.to_string (Json.Obj attrs))
    (match sp.sp_gc with
    | None -> "null"
    | Some g ->
      Printf.sprintf "{\"alloc_bytes\":%s,\"minor\":%d,\"major\":%d}"
        (Json.num g.Profile.pc_alloc_bytes)
        g.Profile.pc_minor g.Profile.pc_major)

let span_of_json j =
  let opt_int name =
    match Json.field name j with
    | None | Some Json.Null -> None
    | Some _ -> Some (Json.int_field name j)
  in
  let sp_id = Json.int_field "id" j in
  let sp_parent = opt_int "parent" in
  let sp_name = Json.str_field "name" j in
  let sp_start_ns = Json.num_field "start_ns" j in
  let sp_dur_ns = Json.num_field "dur_ns" j in
  let sp_attrs =
    List.map
      (function
        | k, Json.Str v -> (k, v)
        | k, _ -> Json.fail "attr %S: expected a string" k)
      (Option.value ~default:[] (Json.opt_field Json.obj_field "attrs" j))
  in
  let sp_gc =
    match Json.field "gc" j with
    | None | Some Json.Null -> None
    | Some _ ->
      let g = Json.Obj (Json.obj_field "gc" j) in
      let pc_alloc_bytes = Json.num_field "alloc_bytes" g in
      let pc_minor = Json.int_field "minor" g in
      let pc_major = Json.int_field "major" g in
      Some { Profile.pc_alloc_bytes; pc_minor; pc_major }
  in
  { sp_id; sp_parent; sp_name; sp_start_ns; sp_dur_ns; sp_attrs; sp_gc }
