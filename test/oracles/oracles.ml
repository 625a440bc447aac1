(* The equivalence oracles the tests and benches check the libraries
   against: the plain first implementations of what the libraries now do
   faster, kept obviously right and out of the library APIs. *)

(* ------------------------------------------------------------------ *)
(* Dense structla kernels                                              *)
(* ------------------------------------------------------------------ *)

(* Straightforward index arithmetic and element-wise initialisers, with
   nothing hoisted. *)

module Mat = Gp_structla.Mat

let bad fmt = Printf.ksprintf invalid_arg fmt

let check_vec op (rows, cols) v =
  if cols <> Array.length v then
    bad "%s: %dx%d * %d" op rows cols (Array.length v)

let matvec_reference (m : Mat.dense) v =
  check_vec "matvec" (m.Mat.n_rows, m.Mat.n_cols) v;
  let n = m.Mat.n_cols in
  Array.init m.Mat.n_rows (fun i ->
      let s = ref 0.0 in
      for j = 0 to n - 1 do
        s := !s +. (m.Mat.d.((i * n) + j) *. v.(j))
      done;
      !s)

let matmul_reference (a : Mat.dense) (b : Mat.dense) =
  if a.Mat.n_cols <> b.Mat.n_rows then
    bad "matmul: %dx%d * %dx%d" a.Mat.n_rows a.Mat.n_cols b.Mat.n_rows
      b.Mat.n_cols;
  let m = a.Mat.n_rows and k = a.Mat.n_cols and n = b.Mat.n_cols in
  let c = Mat.dense_create m n in
  for i = 0 to m - 1 do
    for kk = 0 to k - 1 do
      let av = a.Mat.d.((i * k) + kk) in
      if av <> 0.0 then
        for j = 0 to n - 1 do
          c.Mat.d.((i * n) + j) <-
            c.Mat.d.((i * n) + j) +. (av *. b.Mat.d.((kk * n) + j))
        done
    done
  done;
  c

(* Gaussian elimination with partial pivoting; the dense solve oracle. *)
let solve_reference (m : Mat.dense) b =
  if m.Mat.n_rows <> m.Mat.n_cols then
    bad "solve: %dx%d not square" m.Mat.n_rows m.Mat.n_cols;
  check_vec "solve" (m.Mat.n_rows, m.Mat.n_cols) b;
  let n = m.Mat.n_rows in
  let a = Array.copy m.Mat.d in
  let x = Array.copy b in
  for col = 0 to n - 1 do
    let piv = ref col in
    for r = col + 1 to n - 1 do
      if Float.abs a.((r * n) + col) > Float.abs a.((!piv * n) + col) then
        piv := r
    done;
    if a.((!piv * n) + col) = 0.0 then bad "solve: singular at column %d" col;
    if !piv <> col then begin
      for j = 0 to n - 1 do
        let t = a.((col * n) + j) in
        a.((col * n) + j) <- a.((!piv * n) + j);
        a.((!piv * n) + j) <- t
      done;
      let t = x.(col) in
      x.(col) <- x.(!piv);
      x.(!piv) <- t
    end;
    for r = col + 1 to n - 1 do
      let f = a.((r * n) + col) /. a.((col * n) + col) in
      if f <> 0.0 then begin
        for j = col to n - 1 do
          a.((r * n) + j) <- a.((r * n) + j) -. (f *. a.((col * n) + j))
        done;
        x.(r) <- x.(r) -. (f *. x.(col))
      end
    done
  done;
  for i = n - 1 downto 0 do
    let s = ref x.(i) in
    for j = i + 1 to n - 1 do
      s := !s -. (a.((i * n) + j) *. x.(j))
    done;
    x.(i) <- !s /. a.((i * n) + i)
  done;
  x

(* ------------------------------------------------------------------ *)
(* Dense structla generation                                           *)
(* ------------------------------------------------------------------ *)

(* The first generator: every structure drawn into an n*n dense array,
   then made strictly diagonally dominant over whole dense rows. The
   packed generator draws the same values in the same order. *)

let dominate (m : Mat.dense) =
  let nc = m.Mat.n_cols and d = m.Mat.d in
  for i = 0 to min m.Mat.n_rows nc - 1 do
    let row = i * nc in
    let s = ref 0.0 in
    for j = 0 to nc - 1 do
      if j <> i then s := !s +. Float.abs d.(row + j)
    done;
    d.(row + i) <- !s +. 1.0
  done;
  m

let rand st = Random.State.float st 2.0 -. 1.0

let generate_dense ~structure ~n ~seed =
  if n < 1 then invalid_arg (Printf.sprintf "Mat.generate: n=%d < 1" n);
  let st = Random.State.make [| 0x57ac; seed; n; Hashtbl.hash structure |] in
  let bw = 4 in
  let m = Mat.dense_create n n in
  let d = m.Mat.d in
  match structure with
  | "dense" ->
    for k = 0 to (n * n) - 1 do
      d.(k) <- rand st
    done;
    Some (dominate m)
  | "diagonal" ->
    for i = 0 to n - 1 do
      d.((i * n) + i) <- 1.0 +. Float.abs (rand st)
    done;
    Some m
  | "banded" ->
    for i = 0 to n - 1 do
      for j = max 0 (i - bw) to min (n - 1) (i + bw) do
        d.((i * n) + j) <- rand st
      done
    done;
    Some (dominate m)
  | "triangular" ->
    for i = 0 to n - 1 do
      for j = i to n - 1 do
        d.((i * n) + j) <- rand st
      done
    done;
    Some (dominate m)
  | "symmetric" ->
    for i = 0 to n - 1 do
      for j = 0 to i do
        let x = rand st in
        d.((i * n) + j) <- x;
        d.((j * n) + i) <- x
      done
    done;
    Some (dominate m)
  | "csr" ->
    for k = 0 to (n * n) - 1 do
      if Random.State.int st 20 = 0 then d.(k) <- rand st
    done;
    Some (dominate m)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Constraint propagation                                              *)
(* ------------------------------------------------------------------ *)

module Propagate = Gp_concepts.Propagate
module Concept = Gp_concepts.Concept
module Ctype = Gp_concepts.Ctype

(* The seed closure: recursive descent, dedup by linear scan of the
   accumulator (quadratic in the closure size). *)
let closure_with_reference ?(max_depth = 8) ~lookup concept args =
  let acc = ref [] in
  let add ob =
    if not (List.exists (Propagate.obligation_equal ob) !acc) then (
      acc := ob :: !acc;
      true)
    else false
  in
  let rec go depth concept args =
    if depth > max_depth then ()
    else
      let ob = { Propagate.ob_concept = concept; ob_args = args } in
      if add ob then
        match lookup concept with
        | None -> ()
        | Some con ->
          let env = List.combine con.Concept.params args in
          List.iter
            (fun (rname, rargs) ->
              go (depth + 1) rname (List.map (Ctype.subst env) rargs))
            con.Concept.refines;
          List.iter
            (fun req ->
              let constraints =
                match req with
                | Concept.Assoc_type { at_constraints; _ } -> at_constraints
                | Concept.Constraint c -> [ c ]
                | Concept.Operation _ | Concept.Axiom _
                | Concept.Complexity_guarantee _ ->
                  []
              in
              List.iter
                (function
                  | Concept.Models (cname, cargs) ->
                    go (depth + 1) cname (List.map (Ctype.subst env) cargs)
                  | Concept.Same_type _ -> ())
                constraints)
            con.Concept.requirements
  in
  go 0 concept args;
  List.rev !acc

let closure_reference ?max_depth reg concept args =
  closure_with_reference ?max_depth
    ~lookup:(Gp_concepts.Registry.find_concept reg)
    concept args

(* ------------------------------------------------------------------ *)
(* Concept-guarded rewriting                                           *)
(* ------------------------------------------------------------------ *)

module Engine = Gp_simplicissimus.Engine
module Expr = Gp_simplicissimus.Expr
module Instances = Gp_simplicissimus.Instances
module Rules = Gp_simplicissimus.Rules

(* The seed linear-scan engine: candidate carriers by scanning the whole
   entry list at every node, every rule tried at every node, no guard
   memo. *)
let carriers_reference insts (node : Expr.t) =
  match node with
  | Expr.Op (o, t, _) ->
    let own = [ (t, o) ] in
    let via_inverse =
      List.filter_map
        (fun (e : Instances.entry) ->
          if
            String.equal e.Instances.e_type t
            && e.Instances.e_inverse = Some o
          then Some (t, e.Instances.e_op)
          else None)
        (Instances.entries insts)
    in
    own @ via_inverse
  | Expr.Var _ | Expr.Lit _ | Expr.Ident _ -> []

let try_rule_reference insts ~only_certified (r : Rules.t) ~ty ~op node =
  let guard_ok =
    match r.Rules.user_type with
    | Some ut ->
      String.equal ut ty
      && (match r.Rules.user_op with
         | Some uo -> String.equal uo op
         | None -> true)
    | None ->
      Instances.models insts ~ty ~op ~required:r.Rules.guard
      && ((not r.Rules.requires_ring)
         || Instances.ring_for insts ~ty ~op <> None)
      && ((not only_certified) || !(r.Rules.certified))
  in
  if not guard_ok then None
  else
    match Rules.match_pattern insts ~ty ~op r.Rules.lhs node with
    | Some bindings ->
      Some (Rules.instantiate insts ~ty ~op bindings r.Rules.rhs)
    | None -> None

let rewrite_reference ?(only_certified = false) ~rules ~insts expr =
  let steps = ref [] in
  let budget = ref Engine.max_steps in
  let exhausted = ref false in
  let rec at_root node =
    if !exhausted then node
    else
      let fired =
        List.find_map
          (fun r ->
            List.find_map
              (fun (ty, op) ->
                match try_rule_reference insts ~only_certified r ~ty ~op node with
                | Some after ->
                  Some
                    {
                      Engine.st_rule = r.Rules.rule_name;
                      st_carrier = (ty, op);
                      st_before = node;
                      st_after = after;
                    }
                | None -> None)
              (carriers_reference insts node))
          rules
      in
      match fired with
      | Some step ->
        decr budget;
        if !budget <= 0 then begin
          exhausted := true;
          node
        end
        else begin
          steps := step :: !steps;
          normalize step.Engine.st_after
        end
      | None -> node
  and normalize node =
    match node with
    | Expr.Var _ | Expr.Lit _ | Expr.Ident _ -> at_root node
    | Expr.Op (o, t, args) -> at_root (Expr.Op (o, t, List.map normalize args))
  in
  let output = normalize expr in
  if !exhausted then
    raise
      (Engine.Did_not_terminate
         { dnt_input = expr; dnt_partial = output; dnt_steps = List.rev !steps });
  {
    Engine.input = expr;
    output;
    steps = List.rev !steps;
    ops_before = Expr.op_count expr;
    ops_after = Expr.op_count output;
  }

(* ------------------------------------------------------------------ *)
(* The wire format                                                     *)
(* ------------------------------------------------------------------ *)

module Json = Gp_telemetry.Json
module Request = Gp_service.Request

(* The AST paths: parse the whole [Json.t] tree, then validate
   fields; build the response's tree, then print it. *)

let field fields name = List.assoc_opt name fields

let str_field fields name =
  match field fields name with
  | Some (Json.Str s) -> Ok s
  | Some _ -> Result.error (Printf.sprintf "field %S must be a string" name)
  | None -> Result.error (Printf.sprintf "missing field %S" name)

let opt_str_field fields name =
  match field fields name with
  | Some (Json.Str s) -> Ok (Some s)
  | None | Some Json.Null -> Ok None
  | Some _ -> Result.error (Printf.sprintf "field %S must be a string" name)

let bool_field ~default fields name =
  match field fields name with
  | Some (Json.Bool b) -> Ok b
  | None -> Ok default
  | Some _ -> Result.error (Printf.sprintf "field %S must be a boolean" name)

let int_field ?default fields name =
  match (field fields name, default) with
  | Some (Json.Int i), _ -> Ok i
  | None, Some d -> Ok d
  | None, None -> Result.error (Printf.sprintf "missing field %S" name)
  | Some _, _ -> Result.error (Printf.sprintf "field %S must be an integer" name)

let str_list_field fields name =
  match field fields name with
  | Some (Json.Arr vs) ->
    List.fold_left
      (fun acc v ->
        match (acc, v) with
        | Ok xs, Json.Str s -> Ok (xs @ [ s ])
        | Ok _, _ ->
          Result.error
            (Printf.sprintf "field %S must be an array of strings" name)
        | (Error _ as e), _ -> e)
      (Ok []) vs
  | Some _ ->
    Result.error (Printf.sprintf "field %S must be an array of strings" name)
  | None -> Result.error (Printf.sprintf "missing field %S" name)

let ( let* ) = Result.bind

let request_of_fields fields =
  let* kind = str_field fields "kind" in
  match Request.kind_of_name kind with
  | None -> Result.error (Printf.sprintf "unknown request kind %S" kind)
  | Some Request.Kcheck ->
    let* concept = str_field fields "concept" in
    let* types = str_list_field fields "types" in
    let* nominal = bool_field ~default:false fields "nominal" in
    let* defs = opt_str_field fields "defs" in
    Ok (Request.Check { concept; types; nominal; defs })
  | Some Request.Kparse ->
    let* source = str_field fields "source" in
    Ok (Request.Parse { source })
  | Some Request.Klint ->
    let* source = str_field fields "source" in
    Ok (Request.Lint { source })
  | Some Request.Koptimize ->
    let* expr = str_field fields "expr" in
    let* certified_only = bool_field ~default:false fields "certified_only" in
    Ok (Request.Optimize { expr; certified_only })
  | Some Request.Kprove ->
    let* theory = str_field fields "theory" in
    let* instance = opt_str_field fields "instance" in
    Ok (Request.Prove { theory; instance })
  | Some Request.Kclosure ->
    let* concept = str_field fields "concept" in
    let* types = str_list_field fields "types" in
    Ok (Request.Closure { concept; types })
  | Some ((Request.Kmatvec | Request.Kmatmul | Request.Ksolve) as k) ->
    let* structure = str_field fields "structure" in
    let* n = int_field fields "n" in
    let* seed = int_field ~default:0 fields "seed" in
    Ok
      (match k with
      | Request.Kmatvec -> Request.Matvec { structure; n; seed }
      | Request.Kmatmul -> Request.Matmul { structure; n; seed }
      | _ -> Request.Solve { structure; n; seed })

let request_of_line_ast line =
  match Json.parse line with
  | exception Json.Error m -> Result.error ("bad request line: " ^ m)
  | Json.Obj fields -> (
    let id =
      match field fields "id" with Some (Json.Int i) -> Some i | _ -> None
    in
    match request_of_fields fields with
    | Ok req -> Ok (id, req)
    | Error m -> Result.error ("bad request: " ^ m))
  | _ -> Result.error "bad request line: expected a JSON object"

let strs ss = Json.Arr (List.map (fun s -> Json.Str s) ss)

(* "rewrite_steps" and "kernel_steps", not "steps": the envelope already
   has a "steps" field for the budget charge *)
let payload_fields = function
  | Request.Checked { ok; failures; warnings; report } ->
    [ ("ok", Json.Bool ok); ("failures", Json.Int failures);
      ("warnings", Json.Int warnings); ("report", Json.Str report) ]
  | Request.Parsed { items; concepts; models } ->
    [ ("items", Json.Int items); ("concepts", Json.Int concepts);
      ("models", Json.Int models) ]
  | Request.Linted { errors; warnings; suggestions; messages } ->
    [ ("errors", Json.Int errors); ("warnings", Json.Int warnings);
      ("suggestions", Json.Int suggestions); ("messages", strs messages) ]
  | Request.Optimized { output; steps; ops_before; ops_after } ->
    [ ("output", Json.Str output); ("rewrite_steps", Json.Int steps);
      ("ops_before", Json.Int ops_before); ("ops_after", Json.Int ops_after) ]
  | Request.Proved { checked; failed } ->
    [ ("checked", Json.Int checked); ("failed", Json.Int failed) ]
  | Request.Closed { size; obligations } ->
    [ ("size", Json.Int size); ("obligations", strs obligations) ]
  | Request.Computed { kernel; detected; n; steps; checksum } ->
    [ ("kernel", Json.Str kernel); ("detected", Json.Str detected);
      ("n", Json.Int n); ("kernel_steps", Json.Int steps);
      ("checksum", Json.Str checksum) ]

let response_to_line_ast (r : Request.response) =
  let status_fields =
    match r.Request.rsp_result with
    | Ok payload -> ("status", Json.Str "ok") :: payload_fields payload
    | Error e ->
      [ ("status", Json.Str "error");
        ("error", Json.Str (Request.error_code_name e.Request.code));
        ("detail", Json.Str e.Request.detail) ]
  in
  Json.to_string
    (Json.Obj
       ([ ("id", Json.Int r.Request.rsp_id);
          ( "kind",
            match r.Request.rsp_kind with
            | Some k -> Json.Str (Request.kind_name k)
            | None -> Json.Null ) ]
       @ status_fields
       @ [ ("cached", Json.Bool r.Request.rsp_cached);
           ("steps", Json.Int r.Request.rsp_steps) ]))
