(** Concept-guided kernel selection.

    Three {!Gp_concepts.Overload} generics — matvec, matmul, solve —
    with one candidate per specialised kernel, guarded by the concept
    the kernel requires. Resolution is nominal against the argument's
    {!Mat.carrier} type and the most refined matching guard wins, so a
    diagonal matrix is served by the O(n) kernels, a banded one by the
    O(n·b) matvec with a dense-solve fallback, and so on.

    The registry must contain the {!Decls.declare} world. *)

type Gp_concepts.Overload.dyn +=
  | Dmat of Mat.t
  | Dvec of float array

type t = {
  g_matvec : Gp_concepts.Overload.generic;
  g_matmul : Gp_concepts.Overload.generic;
  g_solve : Gp_concepts.Overload.generic;
}

type op = Matvec | Matmul | Solve

val op_name : op -> string
val create : unit -> t
val generic : t -> op -> Gp_concepts.Overload.generic

val resolve : Gp_concepts.Registry.t -> t -> op -> Mat.t -> Gp_concepts.Overload.resolution
(** Resolution only — what the bench times as dispatch overhead and
    what the ambiguity/miss tests inspect. *)

val matvec :
  Gp_concepts.Registry.t -> t -> Mat.t -> float array ->
  (string * float array, string) result
(** [Ok (kernel_name, y)]; [Error] renders the resolution diagnostic on
    ambiguity or no match. Emits a [structla.matvec] span whose
    [kernel] attribute names the winning kernel (the other operations
    likewise). *)

val matmul :
  Gp_concepts.Registry.t -> t -> Mat.t -> Mat.t -> (string * Mat.t, string) result

val solve :
  Gp_concepts.Registry.t -> t -> Mat.t -> float array ->
  (string * float array, string) result

(** {2 The numeric miss} *)

type miss = {
  ms_kernel : string;  (** the selected candidate *)
  ms_detected : string;  (** the structure {!Detect.classify} found *)
  ms_steps : int;  (** exact kernel steps (the budget charge) *)
  ms_checksum : string;  (** {!Mat.checksum_vec} or {!Mat.checksum} *)
  ms_cells : int;
      (** exact elements touched: the cells {!Mat.generate} writes
          ({!Mat.stored}), the entries {!Detect.classify} reads (as
          {!Detect.classify_reads} counts them) and the kernel steps *)
}

val miss :
  Gp_concepts.Registry.t -> t -> op:op -> structure:string -> n:int ->
  seed:int -> (miss, string) result
(** One served numeric miss: {!Mat.generate}, {!Detect.classify}, the
    step count, the selected kernel on {!Mat.generate_vec} (matvec,
    solve) or on the matrix itself (matmul), and the result's checksum.
    Emits the detect and kernel telemetry of the calls it makes and
    nothing else. [Error] as for {!matvec}; raises [Invalid_argument]
    on an unknown structure or [n < 1]. *)
