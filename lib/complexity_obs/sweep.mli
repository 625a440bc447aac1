(** The size-sweep runner: drive a registered operation over a
    deterministic size ladder and collect a quota-independent measure at
    each rung.

    Measures are exact counts — kernel inner-loop steps, engine rewrite
    steps, closure obligations, simulated messages — never wall-clock,
    so a sweep is bit-reproducible and the fits downstream can be
    hard-gated by bench-diff. The sweep reads no clock. *)

type op = {
  op_name : string;  (** unique key, also the bench-metric prefix *)
  op_category : string;  (** subsystem label for the report table *)
  op_var : string;  (** primary size variable of the declared bound *)
  op_declared : Gp_concepts.Complexity.t;
      (** the guarantee under test, same vocabulary the concept
          declarations use *)
  op_expect_violation : bool;
      (** planted oracles set this: the harness passes only when the
          verdict matches the expectation *)
  op_measure : int -> float;
      (** exact work count at size [n]; must be deterministic *)
  op_env : int -> string -> float;
      (** values of auxiliary size variables (["b"], ["nnz"], ...) at
          size [n], for mixed declared bounds; the primary variable is
          supplied by the harness *)
}

type point = {
  pt_n : int;
  pt_y : float;
  pt_env : string -> float;  (** auxiliary variables at this rung *)
}

type series = {
  sr_op : op;
  sr_points : point list;  (** one per ladder rung, ascending *)
}

val ladder : int list
(** The deterministic size ladder, roughly geometric with ratio √2:
    [16, 23, 32, 45, 64, 91, 128, 181, 256]. *)

val env_const : float -> int -> string -> float
(** [env_const c] maps every auxiliary variable to [c] at every size —
    for single-variable bounds the env is never consulted. *)

val run : op -> series
(** Sweep the ladder. *)
