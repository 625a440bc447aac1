(* The rewrite engine: bottom-up normalisation to a fixpoint, applying
   concept-guarded rules wherever their guards hold.

   "Since concept analysis is a necessary first step for use of a new data
   type with a generic algorithm, optimization via concept-based rewrite
   rules comes essentially for free": here the guard check is literally
   the concept checker's verdict on the carrier, which the registry
   already declares and memoises.

   The engine logs every rule application (rule name, carrier, before,
   after) so the Fig. 5 instance table can be *regenerated mechanically*
   from the rules — bench f5 does exactly that. *)

module Tel = Gp_telemetry.Tel

type step = {
  st_rule : string;
  st_carrier : string * string; (* (type, op) the guard was checked on *)
  st_before : Expr.t;
  st_after : Expr.t;
}

type result = {
  input : Expr.t;
  output : Expr.t;
  steps : step list;
  ops_before : int;
  ops_after : int;
}

(* Candidate carriers for matching a rule at [node]: the node's own
   (type, op), plus any carrier whose *inverse* op is the node's op (so a
   root pattern like inv(inv x) finds its owning carrier). Both come
   from instance-table indexes — no entry-list scan per node. *)
let carriers insts (node : Expr.t) =
  match node with
  | Expr.Op (o, t, _) -> (t, o) :: Instances.inverse_carriers insts ~ty:t ~op:o
  | Expr.Var _ | Expr.Lit _ | Expr.Ident _ -> []

(* Per-rewrite counters the core maintains unconditionally (two int
   stores per guard probe — noise); the instrumented wrapper flushes
   them to the telemetry registry when a sink is installed. *)
type core_stats = { mutable guard_probes : int; mutable guard_hits : int }

(* Try to apply one rule at [node] for carrier (ty, op); the concept guard
   is checked first (user rules are guarded by their library carrier
   instead). [guard_memo] caches the guard — keyed (ty, op, concept,
   ring?) — across one whole rewrite, so repeated guard checks on the
   same carrier cost one hash probe. *)
let try_rule insts ~guard_memo ~stats (r : Rules.t) ~ty ~op node =
  let guard_ok =
    match r.Rules.guard with
    | Rules.Carrier (ut, uo) -> String.equal ut ty && String.equal uo op
    | Rules.Concept concept -> (
      let key = (ty, op, concept, r.Rules.requires_ring) in
      stats.guard_probes <- stats.guard_probes + 1;
      match Hashtbl.find_opt guard_memo key with
      | Some b ->
        stats.guard_hits <- stats.guard_hits + 1;
        b
      | None ->
        let b =
          Instances.models insts ~ty ~op concept
          && ((not r.Rules.requires_ring)
             || Instances.ring_for insts ~ty ~op <> None)
        in
        Hashtbl.add guard_memo key b;
        b)
  in
  if not guard_ok then None
  else
    match Rules.match_pattern insts ~ty ~op r.Rules.lhs node with
    | Some bindings ->
      Some (Rules.instantiate insts ~ty ~op bindings r.Rules.rhs)
    | None -> None

(* rule applications one rewrite may make before it gives up *)
let max_steps = 10_000

exception
  Did_not_terminate of {
    dnt_input : Expr.t;
    dnt_partial : Expr.t;
    dnt_steps : step list;
  }

(* The per-rewrite rule index: rules bucketed by what their LHS root can
   match (Rules.head), each paired with its position in the caller's
   list so the pruned iteration preserves the original rule order — and
   with it which rule a trace records when several could fire. *)
type rule_index = {
  rx_exact : (string, (int * Rules.t) list) Hashtbl.t;
      (* fixed-symbol rules, by symbol *)
  rx_rest : (int * Rules.t) list;
      (* carrier-op, carrier-inverse and wildcard rules *)
  rx_cands : (string, (int * Rules.t) list) Hashtbl.t;
      (* memo: node root symbol -> merged candidate list *)
}

let index_rules rules =
  let rx_exact = Hashtbl.create 16 in
  let rest = ref [] in
  List.iteri
    (fun i r ->
      match Rules.head r with
      | Rules.Head_exact o ->
        let prev = Option.value ~default:[] (Hashtbl.find_opt rx_exact o) in
        Hashtbl.replace rx_exact o (prev @ [ (i, r) ])
      | Rules.Head_carrier_op | Rules.Head_carrier_inverse | Rules.Head_any ->
        rest := (i, r) :: !rest)
    rules;
  { rx_exact; rx_rest = List.rev !rest; rx_cands = Hashtbl.create 16 }

(* Rules that can possibly match a node whose root symbol is [o], in
   original list order: the fixed-symbol bucket for [o] merged with
   everything symbol-free. *)
let candidates rx o =
  match Hashtbl.find_opt rx.rx_cands o with
  | Some l -> l
  | None ->
    let exact = Option.value ~default:[] (Hashtbl.find_opt rx.rx_exact o) in
    let merged =
      List.merge (fun (i, _) (j, _) -> Int.compare i j) exact rx.rx_rest
    in
    Hashtbl.replace rx.rx_cands o merged;
    merged

let rewrite_core ~rules ~insts expr =
  let steps = ref [] in
  let budget = ref max_steps in
  let exhausted = ref false in
  let rx = index_rules rules in
  let guard_memo = Hashtbl.create 64 in
  let stats = { guard_probes = 0; guard_hits = 0 } in
  (* apply rules at the root of [node] until none fires *)
  let rec at_root node =
    match node with
    | Expr.Var _ | Expr.Lit _ | Expr.Ident _ -> node
    | Expr.Op _ when !exhausted -> node
    | Expr.Op (o, _, _) -> (
      let cs = carriers insts node in
      let fired =
        List.find_map
          (fun (_, r) ->
            let cs =
              match Rules.head r with
              | Rules.Head_carrier_op ->
                (* a P_op root only matches when the carrier op IS the
                   node symbol — i.e. the own-carrier at the list head *)
                (match cs with own :: _ -> [ own ] | [] -> [])
              | Rules.Head_exact _ | Rules.Head_carrier_inverse
              | Rules.Head_any ->
                cs
            in
            List.find_map
              (fun (ty, op) ->
                match try_rule insts ~guard_memo ~stats r ~ty ~op node with
                | Some after ->
                  Some
                    {
                      st_rule = r.Rules.rule_name;
                      st_carrier = (ty, op);
                      st_before = node;
                      st_after = after;
                    }
                | None -> None)
              cs)
          (candidates rx o)
      in
      match fired with
      | Some step ->
        decr budget;
        if !budget <= 0 then begin
          (* budget exhausted: drop the offending step (as the seed
             did), stop firing rules, and let [normalize] finish
             rebuilding so the exception can carry the partially
             normalized term and every step taken so far *)
          exhausted := true;
          node
        end
        else begin
          steps := step :: !steps;
          (* the replacement may expose new redexes below the root *)
          normalize step.st_after
        end
      | None -> node)
  and normalize node =
    match node with
    | Expr.Var _ | Expr.Lit _ | Expr.Ident _ -> at_root node
    | Expr.Op (o, t, args) -> at_root (Expr.Op (o, t, List.map normalize args))
  in
  let output = normalize expr in
  if !exhausted then
    raise
      (Did_not_terminate
         { dnt_input = expr; dnt_partial = output; dnt_steps = List.rev !steps });
  ( {
      input = expr;
      output;
      steps = List.rev !steps;
      ops_before = Expr.op_count expr;
      ops_after = Expr.op_count output;
    },
    stats )

let rewrite_uninstrumented ~rules ~insts expr =
  fst (rewrite_core ~rules ~insts expr)

let head_symbol (e : Expr.t) =
  match e with
  | Expr.Op (o, _, _) -> o
  | Expr.Var _ -> "var"
  | Expr.Lit _ -> "lit"
  | Expr.Ident _ -> "ident"

(* The public entry point. Disabled, it is one flag check and a closure
   away from [rewrite_uninstrumented] (bench s3 measures exactly that
   gap); enabled, it opens a span whose attributes carry the call's
   counts — including the head symbol of each fired rule, recovered from
   the step trace after the core returns so the hot loop never touches
   telemetry. *)
let rewrite ~rules ~insts expr =
  if not (Tel.is_enabled ()) then fst (rewrite_core ~rules ~insts expr)
  else
    Tel.with_span ~name:"simplicissimus.rewrite" (fun () ->
        let r, stats = rewrite_core ~rules ~insts expr in
        Tel.attr "steps" (string_of_int (List.length r.steps));
        Tel.attr "ops_before" (string_of_int r.ops_before);
        Tel.attr "ops_after" (string_of_int r.ops_after);
        Tel.attr "guard_probes" (string_of_int stats.guard_probes);
        Tel.attr "guard_hits" (string_of_int stats.guard_hits);
        Tel.attr "heads"
          (String.concat " "
             (List.map (fun s -> head_symbol s.st_before) r.steps));
        r)

let pp_step ppf s =
  Fmt.pf ppf "%a  --[%s @@ (%s,%s)]-->  %a" Expr.pp s.st_before s.st_rule
    (fst s.st_carrier) (snd s.st_carrier) Expr.pp s.st_after

let pp_result ppf r =
  Fmt.pf ppf "@[<v>%a@,  ==>  %a   (%d ops -> %d ops, %d steps)@]" Expr.pp
    r.input Expr.pp r.output r.ops_before r.ops_after (List.length r.steps)
