(* Per-request execution budgets: an abstract step allowance plus a
   wall-clock deadline.

   The underlying libraries know nothing about budgets, so the dispatcher
   charges steps at stage boundaries (per parsed declaration, per lint
   statement, per theorem, per closure obligation...). Coarse, but it makes
   over-budget behaviour deterministic — the same request against the same
   budget always trips at the same charge — which the robustness suite
   relies on. Deadlines are checked on every charge through an injectable
   clock, so tests drive timeouts with a fake clock instead of sleeping. *)

type why = Steps | Deadline

exception Exhausted of why

type t = {
  max_steps : int;
  mutable used : int;
  deadline : float option; (* absolute, in [now]'s timescale *)
  now : unit -> float;
}

let create ?(max_steps = max_int) ?deadline ~now () =
  if max_steps < 0 then invalid_arg "Budget.create: max_steps < 0";
  { max_steps; used = 0; deadline; now }

let used t = t.used
let remaining t = t.max_steps - t.used

let check_deadline t =
  match t.deadline with
  | Some d when t.now () > d -> raise (Exhausted Deadline)
  | _ -> ()

let spend t n =
  check_deadline t;
  t.used <- t.used + n;
  if t.used > t.max_steps then raise (Exhausted Steps)
