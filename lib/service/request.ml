(* The request/response IR of the serving layer.

   Each request names one of the toolchain's five one-shot pipelines plus
   the propagation-closure query that backs them. Responses are total: a
   request either produces a typed payload or a *structured* error — the
   dispatcher never lets an exception escape, because a malformed request
   must not take the server down. *)

module Json = Gp_telemetry.Json

type t =
  | Check of {
      concept : string;
      types : string list;
      nominal : bool;
      defs : string option; (* extra .gpc declarations, checked in a sandbox *)
    }
  | Parse of { source : string } (* a .gpc definitions file *)
  | Lint of { source : string } (* a program in the STLlint surface syntax *)
  | Optimize of { expr : string; certified_only : bool }
  | Prove of { theory : string; instance : string option }
  | Closure of { concept : string; types : string list }
  (* The numeric kinds ship only (structure, n, seed): generation is
     deterministic per triple, so server and replayer regenerate the
     identical matrix and fingerprints stay comparable across
     processes. *)
  | Matvec of { structure : string; n : int; seed : int }
  | Matmul of { structure : string; n : int; seed : int }
  | Solve of { structure : string; n : int; seed : int }

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

let kind = function
  | Check _ -> Kcheck
  | Parse _ -> Kparse
  | Lint _ -> Klint
  | Optimize _ -> Koptimize
  | Prove _ -> Kprove
  | Closure _ -> Kclosure
  | Matvec _ -> Kmatvec
  | Matmul _ -> Kmatmul
  | Solve _ -> Ksolve

let all_kinds =
  [ Kcheck; Kparse; Klint; Koptimize; Kprove; Kclosure; Kmatvec; Kmatmul;
    Ksolve ]

let kind_name = function
  | Kcheck -> "check"
  | Kparse -> "parse"
  | Klint -> "lint"
  | Koptimize -> "optimize"
  | Kprove -> "prove"
  | Kclosure -> "closure"
  | Kmatvec -> "matvec"
  | Kmatmul -> "matmul"
  | Ksolve -> "solve"

let kind_of_name = function
  | "check" -> Some Kcheck
  | "parse" -> Some Kparse
  | "lint" -> Some Klint
  | "optimize" -> Some Koptimize
  | "prove" -> Some Kprove
  | "closure" -> Some Kclosure
  | "matvec" -> Some Kmatvec
  | "matmul" -> Some Kmatmul
  | "solve" -> Some Ksolve
  | _ -> None

let add_bool b v = Buffer.add_string b (if v then "true" else "false")

(* A canonical one-line rendering. Long sources are represented by their
   digest, which is exactly what the content-keyed caches want; it also
   makes workload fingerprints cheap. Rendered through one reused scratch
   buffer — [key] is on the per-request dispatch path. *)
let key_buf = Buffer.create 128

(* top-level loop rather than List.iter: no per-call closure *)
let rec add_sep_rest b sep = function
  | [] -> ()
  | s :: rest ->
    Buffer.add_char b sep;
    Buffer.add_string b s;
    add_sep_rest b sep rest

let add_comma_list b = function
  | [] -> ()
  | x :: xs ->
    Buffer.add_string b x;
    add_sep_rest b ',' xs

let add_digest b s = Buffer.add_string b (Digest.to_hex (Digest.string s))

let key req =
  let b = key_buf in
  Buffer.clear b;
  (match req with
  | Check { concept; types; nominal; defs } ->
    Buffer.add_string b "check|";
    Buffer.add_string b concept;
    Buffer.add_char b '|';
    add_comma_list b types;
    Buffer.add_char b '|';
    add_bool b nominal;
    Buffer.add_char b '|';
    (match defs with None -> Buffer.add_char b '-' | Some d -> add_digest b d)
  | Parse { source } ->
    Buffer.add_string b "parse|";
    add_digest b source
  | Lint { source } ->
    Buffer.add_string b "lint|";
    add_digest b source
  | Optimize { expr; certified_only } ->
    Buffer.add_string b "optimize|";
    add_bool b certified_only;
    Buffer.add_char b '|';
    Buffer.add_string b expr
  | Prove { theory; instance } ->
    Buffer.add_string b "prove|";
    Buffer.add_string b theory;
    Buffer.add_char b '|';
    Buffer.add_string b (Option.value ~default:"*" instance)
  | Closure { concept; types } ->
    Buffer.add_string b "closure|";
    Buffer.add_string b concept;
    Buffer.add_char b '|';
    add_comma_list b types
  | Matvec { structure; n; seed } ->
    Buffer.add_string b "matvec|";
    Buffer.add_string b structure;
    Buffer.add_char b '|';
    Json.add_int b n;
    Buffer.add_char b '|';
    Json.add_int b seed
  | Matmul { structure; n; seed } ->
    Buffer.add_string b "matmul|";
    Buffer.add_string b structure;
    Buffer.add_char b '|';
    Json.add_int b n;
    Buffer.add_char b '|';
    Json.add_int b seed
  | Solve { structure; n; seed } ->
    Buffer.add_string b "solve|";
    Buffer.add_string b structure;
    Buffer.add_char b '|';
    Json.add_int b n;
    Buffer.add_char b '|';
    Json.add_int b seed);
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Responses                                                           *)
(* ------------------------------------------------------------------ *)

type error_code =
  | Bad_request (* unparseable request line / unknown kind / missing field *)
  | Parse_failure (* bad .gpc, lint program or expression inside a request *)
  | Unknown_name (* unknown concept, theory or instance *)
  | Over_budget (* per-request step budget exhausted *)
  | Timeout (* per-request deadline exceeded *)
  | Internal (* unexpected exception; the server survives and reports it *)

let error_code_name = function
  | Bad_request -> "bad-request"
  | Parse_failure -> "parse-failure"
  | Unknown_name -> "unknown-name"
  | Over_budget -> "over-budget"
  | Timeout -> "timeout"
  | Internal -> "internal"

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
      kernel : string; (* overload candidate that served the request *)
      detected : string; (* structure the detector classified *)
      n : int;
      steps : int; (* exact kernel step count, also the budget charge *)
      checksum : string; (* digest of the result's IEEE bit patterns *)
    }

type response = {
  rsp_id : int;
  rsp_kind : kind option; (* [None] when the request line did not parse *)
  rsp_result : (payload, error) result;
  rsp_cached : bool; (* served from a memo cache *)
  rsp_steps : int; (* budget steps charged *)
}

let ok rsp = Result.is_ok rsp.rsp_result

(* Equality of the part the client observes — ids, cache provenance and
   step accounting excluded. The cache-transparency property tests compare
   exactly this. *)
let result_equal (a : response) (b : response) =
  a.rsp_kind = b.rsp_kind && a.rsp_result = b.rsp_result

(* A canonical rendering of exactly the fields [result_equal] compares —
   kind plus the full payload or error — so equal fingerprints mean
   client-observably equal responses. Ids, cache provenance and step
   accounting are excluded on purpose: they vary with cache state, not
   with the request's meaning, and replay must not flag them. *)
let add_nl_list b = function
  | [] -> ()
  | x :: xs ->
    Buffer.add_string b x;
    add_sep_rest b '\n' xs

let response_canonical_into b (r : response) =
  (* [Buffer.add_string b] spelled out at each site: binding it as a
     local [add] is a partial application, i.e. one closure per call *)
  Buffer.add_string b
    (match r.rsp_kind with None -> "invalid" | Some k -> kind_name k);
  (match r.rsp_result with
  | Ok p -> (
    Buffer.add_string b "|ok|";
    match p with
    | Checked { ok; failures; warnings; report } ->
      Buffer.add_string b "checked|";
      add_bool b ok;
      Buffer.add_char b '|';
      Json.add_int b failures;
      Buffer.add_char b '|';
      Json.add_int b warnings;
      Buffer.add_char b '|';
      Buffer.add_string b report
    | Parsed { items; concepts; models } ->
      Buffer.add_string b "parsed|";
      Json.add_int b items;
      Buffer.add_char b '|';
      Json.add_int b concepts;
      Buffer.add_char b '|';
      Json.add_int b models
    | Linted { errors; warnings; suggestions; messages } ->
      Buffer.add_string b "linted|";
      Json.add_int b errors;
      Buffer.add_char b '|';
      Json.add_int b warnings;
      Buffer.add_char b '|';
      Json.add_int b suggestions;
      Buffer.add_char b '|';
      add_nl_list b messages
    | Optimized { output; steps; ops_before; ops_after } ->
      Buffer.add_string b "optimized|";
      Buffer.add_string b output;
      Buffer.add_char b '|';
      Json.add_int b steps;
      Buffer.add_char b '|';
      Json.add_int b ops_before;
      Buffer.add_char b '|';
      Json.add_int b ops_after
    | Proved { checked; failed } ->
      Buffer.add_string b "proved|";
      Json.add_int b checked;
      Buffer.add_char b '|';
      Json.add_int b failed
    | Closed { size; obligations } ->
      Buffer.add_string b "closed|";
      Json.add_int b size;
      Buffer.add_char b '|';
      add_nl_list b obligations
    | Computed { kernel; detected; n; steps; checksum } ->
      Buffer.add_string b "computed|";
      Buffer.add_string b kernel;
      Buffer.add_char b '|';
      Buffer.add_string b detected;
      Buffer.add_char b '|';
      Json.add_int b n;
      Buffer.add_char b '|';
      Json.add_int b steps;
      Buffer.add_char b '|';
      Buffer.add_string b checksum)
  | Error e ->
    Buffer.add_string b "|error|";
    Buffer.add_string b (error_code_name e.code);
    Buffer.add_string b "|";
    Buffer.add_string b e.detail)

let response_canonical (r : response) =
  let b = Buffer.create 128 in
  response_canonical_into b r;
  Buffer.contents b

(* The fingerprint streams the canonical form into the digest: the
   canonical bytes land in a reused scratch buffer and are digested in
   place with [Digest.subbytes] — the canonical *string* is never built.
   The qcheck equivalence suite pins this to
   [Digest.string (response_canonical r)] across every payload and error
   shape. *)
let fp_buf = Buffer.create 512

let fp_bytes = ref (Bytes.create 512)

let response_fingerprint r =
  Buffer.clear fp_buf;
  response_canonical_into fp_buf r;
  let len = Buffer.length fp_buf in
  if Bytes.length !fp_bytes < len then
    fp_bytes := Bytes.create (max len (2 * Bytes.length !fp_bytes));
  Buffer.blit fp_buf 0 !fp_bytes 0 len;
  Digest.to_hex (Digest.subbytes !fp_bytes 0 len)

let pp_payload ppf = function
  | Checked { ok; failures; warnings; _ } ->
    Fmt.pf ppf "checked ok=%b failures=%d warnings=%d" ok failures warnings
  | Parsed { items; concepts; models } ->
    Fmt.pf ppf "parsed items=%d concepts=%d models=%d" items concepts models
  | Linted { errors; warnings; suggestions; _ } ->
    Fmt.pf ppf "linted errors=%d warnings=%d suggestions=%d" errors warnings
      suggestions
  | Optimized { output; steps; ops_before; ops_after } ->
    Fmt.pf ppf "optimized %S steps=%d ops %d->%d" output steps ops_before
      ops_after
  | Proved { checked; failed } ->
    Fmt.pf ppf "proved checked=%d failed=%d" checked failed
  | Closed { size; _ } -> Fmt.pf ppf "closure size=%d" size
  | Computed { kernel; detected; n; steps; _ } ->
    Fmt.pf ppf "computed kernel=%s detected=%s n=%d steps=%d" kernel detected
      n steps

let pp_error ppf e =
  Fmt.pf ppf "error %s: %s" (error_code_name e.code) e.detail

let pp_response ppf r =
  Fmt.pf ppf "#%d %s%s %a" r.rsp_id
    (match r.rsp_kind with None -> "?" | Some k -> kind_name k)
    (if r.rsp_cached then " (cached)" else "")
    (Fmt.result ~ok:pp_payload ~error:pp_error)
    r.rsp_result
