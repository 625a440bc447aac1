(* Causal trace context: the compact (trace id, parent span id) pair a
   message carries across the simulated wire so the receiver can parent
   its spans under the sender's. Parse-is-the-write-path: the wire form
   is "<trace>/<span>" and both directions run cursor-style against
   reused buffers — no intermediate strings, no option-boxed characters
   in the hot loop (the PR 7 discipline).

   [none] is a shared constant: when tracing is off every message
   carries the same physical block, so disabling tracing costs one
   immediate field per message and zero extra allocation. *)

type t = { tc_trace : int; tc_span : int }

let none = { tc_trace = 0; tc_span = 0 }
let v ~trace ~span = { tc_trace = trace; tc_span = span }
let is_none c = c.tc_trace = 0 && c.tc_span = 0
let trace c = c.tc_trace
let span c = c.tc_span

let render_into buf c =
  if c.tc_trace < 0 || c.tc_span < 0 then
    invalid_arg "Context.render_into: negative id";
  Json.add_int buf c.tc_trace;
  Buffer.add_char buf '/';
  Json.add_int buf c.tc_span

let to_string c =
  let buf = Buffer.create 16 in
  render_into buf c;
  Buffer.contents buf

(* Cursor parse: reads digits until the separator, no substring
   allocation. Returns the id and the first position after it; a digit
   run past [max_int] is rejected, never wrapped. *)
let parse_int s pos =
  let len = String.length s in
  let i = ref pos and acc = ref 0 in
  while
    !acc >= 0 && !i < len
    &&
    let ch = String.unsafe_get s !i in
    ch >= '0' && ch <= '9'
  do
    let d = Char.code (String.unsafe_get s !i) - Char.code '0' in
    acc := if !acc > (max_int - d) / 10 then -1 else (!acc * 10) + d;
    incr i
  done;
  if !i > pos && !acc >= 0 then Some (!acc, !i) else None

let parse_at s ~pos =
  match parse_int s pos with
  | None -> None
  | Some (trace, i) ->
    if i < String.length s && s.[i] = '/' then
      match parse_int s (i + 1) with
      | Some (span, j) -> Some ({ tc_trace = trace; tc_span = span }, j)
      | None -> None
    else None

let of_string s =
  match parse_at s ~pos:0 with
  | Some (c, j) when j = String.length s -> Some c
  | _ -> None

let pp ppf c = Fmt.pf ppf "%d/%d" c.tc_trace c.tc_span
