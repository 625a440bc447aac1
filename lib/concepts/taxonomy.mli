(** Algorithm concept taxonomies (paper Sections 1 and 4).

    A taxonomy is a DAG of concept nodes carrying attribute
    classifications (e.g. the seven orthogonal dimensions of the
    distributed-algorithms taxonomy) and entries — concrete algorithms —
    carrying cost bounds per measure (messages, time, local computation,
    comparisons, ...). Queries support refinement reachability,
    "applicable in situation S", best-by-measure selection, and gap
    detection ("situations where no known algorithms ... exist"). *)

type node = {
  nd_name : string;
  nd_parents : string list;  (** refined (more general) nodes *)
  nd_attributes : (string * string) list;  (** dimension -> value *)
  nd_doc : string;
}

type measurement = {
  ms_measure : string;
  ms_param : int;  (** the problem size the sample was taken at *)
  ms_value : float;
}

type entry = {
  en_name : string;
  en_node : string;  (** most specific node the algorithm models *)
  en_costs : (string * Complexity.t) list;  (** analytic bounds *)
  en_doc : string;
  en_measured : measurement list ref;
      (** actual performance samples (paper Section 4: taxonomies
          "organize and present detailed actual performance
          measurements") *)
}

type t = {
  tax_name : string;
  mutable nodes : (string * node) list;
  mutable entries : entry list;
}

val create : string -> t

val add_node :
  ?doc:string ->
  ?attributes:(string * string) list ->
  ?parents:string list ->
  t ->
  string ->
  unit
(** Raises [Registry.Duplicate] on collision and [Invalid_argument] on
    unknown parents. *)

val add_entry :
  ?doc:string ->
  ?costs:(string * Complexity.t) list ->
  t ->
  name:string ->
  node:string ->
  unit

val find_entry : t -> string -> entry option

val record_measurement :
  t -> entry:string -> measure:string -> param:int -> value:float -> unit
(** Attach an actual performance sample to an algorithm entry. Raises
    [Invalid_argument] on an unknown entry. *)

val measurements : t -> entry:string -> measure:string -> measurement list
(** Samples for one measure, sorted by problem size. *)

val refines : t -> string -> string -> bool
(** Reflexive-transitive refinement between nodes. *)

val attributes : t -> string -> (string * string) list
(** Effective attributes: own values override inherited ones. *)

val applicable : t -> requirements:(string * string) list -> entry list
(** Entries whose node satisfies every required attribute. *)

val pick :
  t -> requirements:(string * string) list -> measure:string -> entry list
(** Applicable entries minimal on [measure] (incomparable bounds are all
    kept); entries lacking the measure are returned only when none has
    it. *)

val gaps : t -> string list
(** Leaf nodes with no registered algorithm. *)

val pp_entry : Format.formatter -> entry -> unit
