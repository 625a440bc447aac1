(* Injectable time source. Everything in gp_telemetry reads time through
   one of these, so traces and latency metrics are exactly reproducible
   under test: install a [manual] clock and every span duration is a
   known constant. *)

type t = unit -> float (* nanoseconds since an arbitrary origin *)

let wall () = Unix.gettimeofday () *. 1e9

let manual ?(start = 0.0) ~step () =
  let t = ref (start -. step) in
  fun () ->
    t := !t +. step;
    !t
