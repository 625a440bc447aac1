(** The registered operations the harness sweeps: structla kernels
    (steps counted on deterministically generated matrices), the
    concept engine (rewrite steps and guard probes read off the rewrite
    span, closure obligations, the retained linear registry scan), the
    service LRU, and distsim leader election (simulated message counts)
    — plus one deliberately mis-declared oracle.

    Every measure is an exact count, so catalog sweeps are
    bit-reproducible; declared bounds restate the guarantees the
    {!Gp_structla.Decls} taxonomy and EXPERIMENTS.md carry. *)

val oracle_name : string
(** ["oracle_matvec_dense"]: dense matvec declared O(n) on purpose. The
    harness must flag it as a violation — it proves the verdict layer
    has teeth. *)

val ops : unit -> Sweep.op list
(** The full catalog, stable order, [oracle_name] last. *)

val find : string -> Sweep.op option
(** Look an operation up by [op_name]. *)
