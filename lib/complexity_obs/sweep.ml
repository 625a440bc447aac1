(* The sweep runner. Ladder sizes are fixed constants: measures are
   exact counts, so there is no quota to adapt to and quick mode must
   produce bit-identical series (the s8 hard gate depends on it). *)

type op = {
  op_name : string;
  op_category : string;
  op_var : string;
  op_declared : Gp_concepts.Complexity.t;
  op_expect_violation : bool;
  op_measure : int -> float;
  op_env : int -> string -> float;
}

type point = { pt_n : int; pt_y : float; pt_env : string -> float }

type series = { sr_op : op; sr_points : point list; sr_wall_ns : float }

(* ~geometric ladder, ratio √2: wide enough to separate n from n log n
   (the log factor doubles across it) while the largest dense cubic
   rung stays ~6M steps. *)
let ladder = [ 16; 23; 32; 45; 64; 91; 128; 181; 256 ]

(* the size of the optional wall probe *)
let wall_size = 128

let env_const c _n _var = c

let run ?(wall = false) op =
  let points =
    List.map
      (fun n -> { pt_n = n; pt_y = op.op_measure n; pt_env = op.op_env n })
      ladder
  in
  let wall_ns =
    if wall then begin
      let t0 = Gp_telemetry.Clock.wall () in
      ignore (op.op_measure wall_size);
      Gp_telemetry.Clock.wall () -. t0
    end
    else Float.nan
  in
  { sr_op = op; sr_points = points; sr_wall_ns = wall_ns }
