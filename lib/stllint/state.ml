(* The abstract domain: container states and iterator states.

   Invalidation is applied eagerly (a mutation immediately downgrades every
   affected iterator state), so the domain is finite and loop fixpoints
   terminate without numeric widening. *)

module Smap = Map.Make (String)

type sortedness = Sorted | Unsorted | Unknown_sorted

type cstate = {
  c_kind : Ast.container_kind;
  c_sorted : sortedness;
}

type istate =
  | I_singular of string (* why it is singular: "erased", "default", ... *)
  | I_invalid of string (* invalidated by a container mutation *)
  | I_valid of { c : string; maybe_end : bool }
  | I_end of string (* past-the-end of container c *)
  | I_top (* unknown: no diagnostics issued *)

type t = {
  containers : cstate Smap.t;
  iters : istate Smap.t;
  (* accumulated single-pass consumption: streams already traversed once *)
  consumed_streams : string list;
}

let empty =
  { containers = Smap.empty; iters = Smap.empty; consumed_streams = [] }

let container t name = Smap.find_opt name t.containers
let iter t name = Smap.find_opt name t.iters

let set_container t name st =
  { t with containers = Smap.add name st t.containers }

let set_iter t name st = { t with iters = Smap.add name st t.iters }

(* Apply an invalidation effect on container [c]. *)
let invalidate t ~container:c ~(effect : Spec.invalidation) ~erased_at =
  match effect with
  | Spec.Invalidates_none -> t
  | Spec.Invalidates_point ->
    (* only the erased iterator becomes singular *)
    (match erased_at with
    | Some at -> set_iter t at (I_singular "erased")
    | None -> t)
  | Spec.Invalidates_all ->
    let iters =
      Smap.map
        (function
          | I_valid { c = c'; _ } when String.equal c c' ->
            (if erased_at <> None then I_singular "erased"
             else I_invalid "container mutated")
          | I_end c' when String.equal c c' ->
            (if erased_at <> None then I_singular "erased"
             else I_invalid "container mutated")
          | st -> st)
        t.iters
    in
    { t with iters }

(* ------------------------------------------------------------------ *)
(* Join (for control-flow merges)                                      *)
(* ------------------------------------------------------------------ *)

let join_sorted a b =
  match a, b with
  | Sorted, Sorted -> Sorted
  | Unsorted, Unsorted -> Unsorted
  | _ -> Unknown_sorted

let join_cstate a b =
  if a.c_kind <> b.c_kind then a (* cannot happen: kinds are static *)
  else { a with c_sorted = join_sorted a.c_sorted b.c_sorted }

let join_istate a b =
  match a, b with
  | I_singular r, _ | _, I_singular r -> I_singular r
  | I_invalid r, _ | _, I_invalid r -> I_invalid r
  | I_valid v1, I_valid v2 when String.equal v1.c v2.c ->
    I_valid { c = v1.c; maybe_end = v1.maybe_end || v2.maybe_end }
  | I_valid v, I_end c | I_end c, I_valid v when String.equal v.c c ->
    I_valid { c; maybe_end = true }
  | I_end c1, I_end c2 when String.equal c1 c2 -> I_end c1
  | _, _ -> I_top

let join a b =
  {
    containers =
      Smap.union (fun _ x y -> Some (join_cstate x y)) a.containers
        b.containers;
    iters =
      Smap.merge
        (fun _ x y ->
          match x, y with
          | Some x, Some y -> Some (join_istate x y)
          | Some _, None | None, Some _ -> Some I_top
          | None, None -> None)
        a.iters b.iters;
    consumed_streams =
      List.sort_uniq String.compare (a.consumed_streams @ b.consumed_streams);
  }

let equal_istate a b =
  match a, b with
  | I_singular _, I_singular _ -> true
  | I_invalid _, I_invalid _ -> true
  | I_valid x, I_valid y -> String.equal x.c y.c && x.maybe_end = y.maybe_end
  | I_end x, I_end y -> String.equal x y
  | I_top, I_top -> true
  | _ -> false

let equal a b =
  Smap.equal
    (fun (x : cstate) y -> x.c_kind = y.c_kind && x.c_sorted = y.c_sorted)
    a.containers b.containers
  && Smap.equal equal_istate a.iters b.iters
  && a.consumed_streams = b.consumed_streams
