(* The sweep runner. Ladder sizes are fixed constants and measures are
   exact counts, so every sweep yields a bit-identical series (the s8
   hard gate depends on it). *)

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

type series = { sr_op : op; sr_points : point list }

(* ~geometric ladder, ratio √2: wide enough to separate n from n log n
   (the log factor doubles across it) while the largest dense cubic
   rung stays ~6M steps. *)
let ladder = [ 16; 23; 32; 45; 64; 91; 128; 181; 256 ]

let env_const c _n _var = c

let run op =
  { sr_op = op;
    sr_points =
      List.map
        (fun n -> { pt_n = n; pt_y = op.op_measure n; pt_env = op.op_env n })
        ladder }
