(* The one place the bench reads a clock or counts allocation.

   A wall number is the median of [trials] samples with its quartile
   spread. Each trial times every job of a set once, in a shuffled
   order, so a drift in the host's speed moves all of them alike, and
   values derived from one trial (ratios, overheads, differences) are
   medians of the per-trial values. Allocation probes are exact counts.

   [--quick] means one thing: no job is timed and every wall key is
   null. Nothing else depends on it, so every other key of a quick run
   equals the full run's. *)

let quick = ref false

(* Wall seconds of one call, repeated to at least a millisecond so the
   clock's resolution stays under 0.1 %. The first call calibrates. A
   sample starts after a full major collection, so a job pays for its
   own garbage, not for the garbage of the job timed before it. *)
let seconds f =
  let t0 = Unix.gettimeofday () in
  f ();
  let once = Unix.gettimeofday () -. t0 in
  let reps = max 1 (int_of_float (1e-3 /. Float.max once 1e-7)) in
  fun () ->
    Gc.full_major ();
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      f ()
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int reps

(* The median of the samples [xs], with their interquartile range. *)
let spread xs =
  let xs = Array.copy xs in
  Array.sort compare xs;
  let at q = xs.(int_of_float (q *. float_of_int (Array.length xs - 1))) in
  (at 0.5, at 0.75 -. at 0.25)

(* A job that runs [f] and keeps its result from being optimised away. *)
let job f () = ignore (Sys.opaque_identity (f ()))

type wall = { trials : int; stats : (string * (float * float)) list }

(* Time the named [jobs] over [n] trials. A job's sample is its ns per
   call divided by [per] (operations per call) and by [unit] (ns per
   reported unit: 1e3 for microseconds). Each [derive] entry computes a
   named value from one trial's samples, looked up by job name. *)
let trials ?(n = 21) ?(per = 1) ?(unit = 1.0) ?(derive = []) jobs =
  let names = List.map fst jobs @ List.map fst derive in
  if !quick then
    { trials = n; stats = List.map (fun k -> (k, (nan, nan))) names }
  else begin
    let samplers = Array.of_list (List.map (fun (_, f) -> seconds f) jobs) in
    let scale = 1e9 /. float_of_int per /. unit in
    let rng = Random.State.make [| 7 |] in
    let samples =
      Array.init n (fun _ ->
          let order = Array.init (Array.length samplers) Fun.id in
          for i = Array.length order - 1 downto 1 do
            let j = Random.State.int rng (i + 1) in
            let x = order.(i) in
            order.(i) <- order.(j);
            order.(j) <- x
          done;
          let t = Array.make (Array.length samplers) 0.0 in
          Array.iter (fun j -> t.(j) <- samplers.(j) () *. scale) order;
          let timed = List.mapi (fun i (k, _) -> (k, t.(i))) jobs in
          let at k = List.assoc k timed in
          Array.of_list
            (Array.to_list t @ List.map (fun (_, f) -> f at) derive))
    in
    { trials = n;
      stats =
        List.mapi
          (fun i k -> (k, spread (Array.map (fun s -> s.(i)) samples)))
          names }
  end

(* The median and quartile spread of the job or derived value [k]. *)
let get w k = List.assoc k w.stats

(* ------------------------------------------------------------------ *)
(* Allocation probes                                                   *)
(* ------------------------------------------------------------------ *)

(* The exact minor words of one call of [f] after a warm-up call,
   divided by [per]. *)
let minor_words ?(per = 1) f =
  ignore (f ());
  let w0 = Gc.minor_words () in
  ignore (f ());
  (Gc.minor_words () -. w0) /. float_of_int per

(* [f ()] and the minor words it allocated, with no warm-up. *)
let allocated f =
  let w0 = Gc.minor_words () in
  let x = f () in
  (x, Gc.minor_words () -. w0)

(* Minor and major words of one call of [f] after a warm-up call, each
   divided by [per]. [Gc.counters] leaves out the words of the live
   minor heap; [Gc.minor_words] counts them. *)
let words ?(per = 1) f =
  ignore (f ());
  let minor0 = Gc.minor_words () and _, _, major0 = Gc.counters () in
  ignore (f ());
  let minor1 = Gc.minor_words () and _, _, major1 = Gc.counters () in
  let per = float_of_int per in
  ((minor1 -. minor0) /. per, (major1 -. major0) /. per)

(* What one call of [f] leaves to the major heap, promoted or allocated
   there, divided by [per]: it starts on an empty minor heap and ends by
   promoting what it left live, so the count does not depend on where
   the minor heap stood. *)
let promoted_words ?(per = 1) f =
  Gc.full_major ();
  let _, _, j0 = Gc.counters () in
  ignore (f ());
  Gc.minor ();
  let _, _, j1 = Gc.counters () in
  (j1 -. j0) /. float_of_int per

(* A clock that advances 2^-20 s (about a microsecond) per reading, so
   its sums are exact: a server on it keeps the same slowest-k records,
   and allocates the same words, on a loaded host as on an idle one.
   Like the wall clock, a reading boxes one float. *)
let ticking_clock () =
  let ticks = [| 0.0 |] in
  fun () ->
    ticks.(0) <- ticks.(0) +. 0x1p-20;
    ticks.(0)

(* ------------------------------------------------------------------ *)
(* Machine-readable results (--json FILE)                              *)
(* ------------------------------------------------------------------ *)

(* Sections record named scalar results; at exit the driver writes them
   as one JSON object keyed by experiment id, so CI can diff measured
   numbers across commits without scraping stdout. *)
let metrics : (string * string * float) list ref = ref []
let trials_of : (string * int) list ref = ref []

let record ~experiment name v = metrics := (experiment, name, v) :: !metrics

(* The wall key [k] of [w] and its spread [k ^ "_iqr"]. The section's
   [wall_trials] is written once, after its last key. *)
let record_wall ~experiment w k =
  let median, iqr = get w k in
  record ~experiment k median;
  record ~experiment (k ^ "_iqr") iqr;
  trials_of := (experiment, w.trials) :: List.remove_assoc experiment !trials_of

(* Run the section [f] in a child process and keep what it recorded.
   The libraries share process-wide memo tables, so a section that runs
   after another one that served requests allocates less: run alone, as
   the runtest gates run it, and in a full run, a section starts from
   the same state and records the same counts. A failed section fails
   the run. *)
let isolated f =
  Format.print_flush ();
  let r, w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
    Unix.close r;
    f ();
    Format.print_flush ();
    let oc = Unix.out_channel_of_descr w in
    Marshal.to_channel oc (!metrics, !trials_of) [];
    close_out oc;
    exit 0
  | pid -> (
    Unix.close w;
    let ic = Unix.in_channel_of_descr r in
    let recorded =
      try Some (Marshal.from_channel ic) with End_of_file -> None
    in
    close_in ic;
    match (Unix.waitpid [] pid, recorded) with
    | (_, Unix.WEXITED 0), Some (m, t) ->
      metrics := m;
      trials_of := t
    | _ -> exit 2)

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
      let rows =
        List.filter_map
          (fun (s, name, v) ->
            if String.equal s sec then Some (name, v) else None)
          all
        @
        match List.assoc_opt sec !trials_of with
        | Some n -> [ ("wall_trials", if !quick then nan else float_of_int n) ]
        | None -> []
      in
      List.iteri
        (fun j (name, v) ->
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
