(** The typed request/response IR of the serving layer.

    One constructor per pipeline the toolchain exposes (concept check,
    [.gpc] parse, lint, optimize, prove) plus the propagation-closure
    query that backs generic-signature checking. Responses are total:
    every request yields either a typed payload or a {e structured}
    error — malformed input must never kill the server. *)

type t =
  | Check of {
      concept : string;
      types : string list;
      nominal : bool;
      defs : string option;
          (** extra [.gpc] declarations loaded into a per-request sandbox
              registry, leaving the shared world untouched *)
    }
  | Parse of { source : string }  (** a [.gpc] definitions source *)
  | Lint of { source : string }  (** STLlint surface-syntax program *)
  | Optimize of { expr : string; certified_only : bool }
  | Prove of { theory : string; instance : string option }
      (** theory ∈ swo/monoid/group/ring/orders; [instance] restricts to
          one operator mapping (e.g. ["int\[+\]"]) *)
  | Closure of { concept : string; types : string list }
  | Matvec of { structure : string; n : int; seed : int }
      (** structure-aware [y = A·x]; the matrix is regenerated
          deterministically from [(structure, n, seed)] on both the
          server and the replayer *)
  | Matmul of { structure : string; n : int; seed : int }  (** [A·A] *)
  | Solve of { structure : string; n : int; seed : int }  (** [A·x = b] *)

type kind =
  | Kcheck
  | Kparse
  | Klint
  | Koptimize
  | Kprove
  | Kclosure
  | Kmatvec
  | Kmatmul
  | Ksolve

val kind : t -> kind
val all_kinds : kind list
val kind_name : kind -> string
val kind_of_name : string -> kind option

val key : t -> string
(** One-line content key with embedded sources digested: the cluster's
    routing and hot-key key and the workload fingerprint's. It is not a
    cache key: it does not tell [["a,b"]] from [["a"; "b"]] (names are
    comma-joined), nor [instance "*"] from no instance. It stays as it
    is because changing it would re-route the cluster and change every
    dump. *)

(** {2 Responses} *)

type error_code =
  | Bad_request
  | Parse_failure
  | Unknown_name
  | Over_budget
  | Timeout
  | Internal

val error_code_name : error_code -> string

type error = { code : error_code; detail : string }

type payload =
  | Checked of { ok : bool; failures : int; warnings : int; report : string }
  | Parsed of { items : int; concepts : int; models : int }
  | Linted of {
      errors : int;
      warnings : int;
      suggestions : int;
      messages : string list;
    }
  | Optimized of {
      output : string;
      steps : int;
      ops_before : int;
      ops_after : int;
    }
  | Proved of { checked : int; failed : int }
  | Closed of { size : int; obligations : string list }
  | Computed of {
      kernel : string;
          (** name of the overload candidate that served the request,
              e.g. ["matvec.diagonal"] *)
      detected : string;  (** structure the detector classified *)
      n : int;
      steps : int;
          (** exact kernel step count; also the budget charge *)
      checksum : string;
          (** digest of the result's IEEE bit patterns — replay-stable *)
    }

(** A cached answer: what an answer LRU keeps under one key. It is
    rendered at most once and digested at most once; every later hit
    copies the stored bytes. *)
type entry = {
  e_result : (payload, error) result;
      (** the finished [Ok payload], handed back as it is on every hit *)
  mutable e_wire : string;
      (** the payload's wire fragment, the fields between
          [,"status":"ok"] and [,"cached"]; [""] until a hit renders it
          ({!Wire.response_into}) *)
  mutable e_fp : string;
      (** the answer's {!response_fingerprint}; [""] until first
          digested *)
}

val entry : payload -> entry
(** A fresh entry for [payload], fragment and digest empty. *)

val no_entry : entry
(** The one "not served from an entry" sentinel, compared with [==];
    nothing is ever stored into it. *)

type response = {
  rsp_id : int;
  rsp_kind : kind option;  (** [None] when the request line did not parse *)
  rsp_result : (payload, error) result;
      (** on a hit, the entry's [e_result] itself *)
  rsp_cached : bool;
  rsp_steps : int;
  rsp_entry : entry;
      (** the cache entry the answer was served from, or {!no_entry}:
          misses, errors and a cache-off server render and digest
          afresh *)
}

val ok : response -> bool

val result_equal : response -> response -> bool
(** Equality of what the client observes (kind and result); ids, cache
    provenance and step accounting excluded — the cache-transparency
    property compares exactly this. *)

val response_canonical : response -> string
(** Canonical rendering of exactly what {!result_equal} compares: kind
    plus the full payload or error, with id/cached/steps excluded.
    Equal strings iff [result_equal]. *)

val response_fingerprint : response -> string
(** Digest of {!response_canonical} — the equality flight-recorder
    replay asserts. Streamed: the canonical bytes are digested from a
    reused scratch buffer, the canonical string is never materialized;
    bit-identical to [Digest.string (response_canonical r)]. A response
    served from an entry reads the entry's digest, computing and keeping
    it on first use. *)

val result_fingerprint :
  kind:string -> (payload, error) result -> string
(** [response_fingerprint r] from the parts it digests: the request
    kind's name (["invalid"] when the line did not parse) and the
    result. The flight recorder keeps just
    these and digests them at export. *)

val pp_response : Format.formatter -> response -> unit
