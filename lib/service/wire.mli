(** The wire format: one JSON object per line ("JSONL-ish"), over the
    {!Gp_telemetry.Json} subset. This module holds the request and
    response codecs only.

    Example request lines:
    {v
    {"id":1,"kind":"check","concept":"Container","types":["varray<int>"]}
    {"kind":"optimize","expr":"x*1+0","certified_only":true}
    {"kind":"prove","theory":"group","instance":"int[+]"}
    v} *)

val request_of_line : string -> (int option * Request.t, string) result
(** Decode one request line: optional client-chosen [id] plus the typed
    request. [Error] carries a human-readable reason — the server turns
    it into a structured [Bad_request] response, never an exception.

    Known request shapes are parsed directly from the line into the
    typed IR without materializing a {!Gp_telemetry.Json.t} tree, so
    steady-state allocation is limited to the strings the request must
    own. Accepted lines and error messages are those of
    {!Gp_telemetry.Json.parse} followed by field validation. *)

val request_to_line : ?id:int -> Request.t -> string
(** Encode a request; [request_of_line (request_to_line r)] round-trips. *)

val response_into : Buffer.t -> Request.response -> unit
(** Append one response line (without the trailing newline) to [buf].
    The buffer is owned by the caller — the server keeps one per
    connection loop and reuses it — and the bytes are those
    {!Gp_telemetry.Json.to_string} prints for the response's tree. *)

val response_to_line : Request.response -> string
(** [response_into] into a fresh buffer; convenience for cold paths. *)
