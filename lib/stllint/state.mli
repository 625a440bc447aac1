(** The abstract domain of the checker: container states (kind,
    sortedness) and iterator states (singular / invalid / valid /
    past-the-end / unknown). Invalidation is applied eagerly on
    mutation, keeping the domain finite so loop fixpoints terminate
    without numeric widening. *)

module Smap : Map.S with type key = string

type sortedness = Sorted | Unsorted | Unknown_sorted

type cstate = { c_kind : Ast.container_kind; c_sorted : sortedness }

type istate =
  | I_singular of string  (** why: "erased", "default-initialised", ... *)
  | I_invalid of string  (** invalidated by a container mutation *)
  | I_valid of { c : string; maybe_end : bool }
  | I_end of string
  | I_top  (** unknown: no diagnostics issued *)

type t = {
  containers : cstate Smap.t;
  iters : istate Smap.t;
  consumed_streams : string list;
      (** single-pass streams already traversed once *)
}

val empty : t
val container : t -> string -> cstate option
val iter : t -> string -> istate option
val set_container : t -> string -> cstate -> t
val set_iter : t -> string -> istate -> t

val invalidate :
  t -> container:string -> effect:Spec.invalidation -> erased_at:string option -> t
(** Apply a mutation's invalidation effect to every affected iterator. *)

(** {2 Lattice operations (control-flow merges)} *)

val join : t -> t -> t
val equal : t -> t -> bool
