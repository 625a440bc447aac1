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
(* The stdlib draw stream                                              *)
(* ------------------------------------------------------------------ *)

(* The draws Mat's own LXM stream replicates, made by the stdlib. *)

let draw_uniform_reference st dst =
  for k = 0 to Array.length dst - 1 do
    dst.(k) <- rand st
  done

let draw_sparse_reference st dst =
  for k = 0 to Array.length dst - 1 do
    dst.(k) <- (if Random.State.int st 20 = 0 then rand st else 0.0)
  done

(* ------------------------------------------------------------------ *)
(* Structure detection                                                 *)
(* ------------------------------------------------------------------ *)

(* The full-profile classify: every stored entry profiled, the fixed
   priority applied, and the input kept exactly when the representation
   the strict packers build from its expansion equals it. *)

module Detect = Gp_structla.Detect

let classify_reference (m : Mat.t) =
  let p = Detect.profile m in
  let rows, cols = Mat.dims m in
  let sq = rows * cols in
  let packed = function Some r -> r | None -> invalid_arg "packer refused" in
  let d = Mat.to_dense m in
  let built =
    if rows <> cols then
      if p.Detect.pr_nnz * 4 <= sq then Mat.Csr (Mat.pack_csr d)
      else Mat.Dense d
    else if p.Detect.pr_lo = 0 && p.Detect.pr_hi = 0 then
      Mat.Diagonal (packed (Mat.pack_diagonal d))
    else if p.Detect.pr_lo = 0 || p.Detect.pr_hi = 0 then
      Mat.Triangular (packed (Mat.pack_triangular d))
    else if p.Detect.pr_symmetric then
      Mat.Symmetric (packed (Mat.pack_symmetric d))
    else if p.Detect.pr_lo + p.Detect.pr_hi + 1 <= rows / 2 then
      Mat.Banded
        (packed (Mat.pack_banded ~lo:p.Detect.pr_lo ~hi:p.Detect.pr_hi d))
    else if p.Detect.pr_nnz * 4 <= sq then Mat.Csr (Mat.pack_csr d)
    else Mat.Dense d
  in
  if compare built m = 0 then m else built

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
   memo; a guard asks the surface table's registry directly. *)
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

let try_rule_reference insts (r : Rules.t) ~ty ~op node =
  let guard_ok =
    match r.Rules.guard with
    | Rules.Carrier (ut, uo) -> String.equal ut ty && String.equal uo op
    | Rules.Concept concept ->
      let carrier = Gp_algebra.Decls.carrier_name ~elem:ty ~op in
      Gp_concepts.Check.models ~mode:Gp_concepts.Check.Nominal
        (Instances.registry insts) concept
        [ Gp_concepts.Ctype.Named carrier ]
      && ((not r.Rules.requires_ring)
         || Instances.ring_for insts ~ty ~op <> None)
  in
  if not guard_ok then None
  else
    match Rules.match_pattern insts ~ty ~op r.Rules.lhs node with
    | Some bindings ->
      Some (Rules.instantiate insts ~ty ~op bindings r.Rules.rhs)
    | None -> None

let rewrite_reference ~rules ~insts expr =
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
                match try_rule_reference insts r ~ty ~op node with
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
(* Propositions                                                        *)
(* ------------------------------------------------------------------ *)

module Logic = Gp_athena.Logic

(* The first free-variable scan: a list built per subformula. *)
let rec term_vars acc = function
  | Logic.Var x -> if List.mem x acc then acc else x :: acc
  | Logic.App (_, args) -> List.fold_left term_vars acc args

let rec free_vars_reference acc = function
  | Logic.True | Logic.False -> acc
  | Logic.Atom (_, args) -> List.fold_left term_vars acc args
  | Logic.Eq (a, b) -> term_vars (term_vars acc a) b
  | Logic.Not p -> free_vars_reference acc p
  | Logic.And (p, q) | Logic.Or (p, q) | Logic.Implies (p, q) | Logic.Iff (p, q)
    ->
    free_vars_reference (free_vars_reference acc p) q
  | Logic.Forall (x, p) | Logic.Exists (x, p) ->
    List.fold_left
      (fun acc v -> if v = x || List.mem v acc then acc else v :: acc)
      acc
      (free_vars_reference [] p)

(* De Bruijn form: binders lose their names, a bound variable becomes the
   number of binders between it and its own, and a free variable keeps
   its name under a constructor no bound one shares. *)
type db_term = Bound of int | Free of string | Fn of string * db_term list

type db_prop =
  | Const of bool
  | Rel of string * db_term list
  | Equal of db_term * db_term
  | Neg of db_prop
  | Conn of string * db_prop * db_prop
  | Quant of string * db_prop

let rec db_term scope = function
  | Logic.Var x ->
    let rec find i = function
      | [] -> Free x
      | y :: s -> if y = x then Bound i else find (i + 1) s
    in
    find 0 scope
  | Logic.App (f, args) -> Fn (f, List.map (db_term scope) args)

let rec db_prop scope = function
  | Logic.True -> Const true
  | Logic.False -> Const false
  | Logic.Atom (r, args) -> Rel (r, List.map (db_term scope) args)
  | Logic.Eq (a, b) -> Equal (db_term scope a, db_term scope b)
  | Logic.Not p -> Neg (db_prop scope p)
  | Logic.And (p, q) -> Conn ("and", db_prop scope p, db_prop scope q)
  | Logic.Or (p, q) -> Conn ("or", db_prop scope p, db_prop scope q)
  | Logic.Implies (p, q) -> Conn ("implies", db_prop scope p, db_prop scope q)
  | Logic.Iff (p, q) -> Conn ("iff", db_prop scope p, db_prop scope q)
  | Logic.Forall (x, p) -> Quant ("forall", db_prop (x :: scope) p)
  | Logic.Exists (x, p) -> Quant ("exists", db_prop (x :: scope) p)

let alpha_equal_reference p q = db_prop [] p = db_prop [] q

(* ------------------------------------------------------------------ *)
(* Theories                                                            *)
(* ------------------------------------------------------------------ *)

(* The axiom lists as Gp_athena.Theory wrote them by hand, before it
   parsed the registry's statements; the abelian group's in the
   refinement chain's order. *)

module Theory = Gp_athena.Theory

let chain name =
  List.map
    (fun (c, (ax : Concept.axiom)) ->
      { Theory.ax_name = ax.ax_name; ax_prop = Theory.of_statement c ax })
    (Gp_algebra.Decls.chain name)

let axiom ax_name ax_prop = { Theory.ax_name; ax_prop }
let va = Logic.Var "a"
let vb = Logic.Var "b"
let vc = Logic.Var "c"
let ( %. ) = Theory.( %. )

let semigroup_reference m =
  [ axiom "associativity"
      (Logic.forall_many [ "a"; "b"; "c" ]
         (Eq (m %. (m %. (va, vb), vc), m %. (va, m %. (vb, vc))))) ]

let identity side m =
  let e = Theory.e_of m in
  axiom (side ^ "_identity")
    (Forall ("a", Eq ((if side = "left" then m %. (e, va) else m %. (va, e)), va)))

let inverse side m =
  let i = Theory.inv_of m va in
  axiom (side ^ "_inverse")
    (Forall
       ( "a",
         Eq ((if side = "left" then m %. (i, va) else m %. (va, i)), Theory.e_of m)
       ))

let monoid_reference m =
  semigroup_reference m @ [ identity "left" m; identity "right" m ]

let group_minimal_reference m =
  semigroup_reference m @ [ identity "left" m; inverse "left" m ]

let abelian_group_reference m =
  monoid_reference m
  @ [ inverse "left" m; inverse "right" m;
      axiom "commutativity"
        (Logic.forall_many [ "a"; "b" ] (Eq (m %. (va, vb), m %. (vb, va)))) ]

let strict_weak_order_reference ~lt =
  let lt_ = Theory.lt_atom lt and e = Theory.equiv lt in
  let abc = Logic.forall_many [ "a"; "b"; "c" ] in
  [ axiom "irreflexivity" (Forall ("a", Not (lt_ va va)));
    axiom "transitivity"
      (abc (Implies (And (lt_ va vb, lt_ vb vc), lt_ va vc)));
    axiom "equivalence_transitivity"
      (abc (Implies (And (e va vb, e vb vc), e va vc))) ]

let ring_reference (rm : Theory.ring_mapping) =
  let dress prefix =
    List.map (fun (ax : Theory.axiom) ->
        { ax with ax_name = prefix ^ "_" ^ ax.ax_name })
  in
  let add = rm.add and mul = rm.mul in
  let abc = Logic.forall_many [ "a"; "b"; "c" ] in
  dress "add" (abelian_group_reference add)
  @ dress "mul" (monoid_reference mul)
  @ [ axiom "left_distributivity"
        (abc
           (Eq
              ( mul %. (va, add %. (vb, vc)),
                add %. (mul %. (va, vb), mul %. (va, vc)) )));
      axiom "right_distributivity"
        (abc
           (Eq
              ( mul %. (add %. (va, vb), vc),
                add %. (mul %. (va, vc), mul %. (vb, vc)) ))) ]

(* ------------------------------------------------------------------ *)
(* Axioms on values                                                    *)
(* ------------------------------------------------------------------ *)

module Decls = Gp_algebra.Decls
module Eval = Gp_simplicissimus.Eval

let holds interp p values =
  let rec term env = function
    | Logic.Var x -> List.assoc x env
    | Logic.App (f, args) -> interp f (List.map (term env) args)
  in
  let rec prop env = function
    | Logic.True -> true
    | Logic.False -> false
    | Logic.Atom (r, args) ->
      Expr.value_equal (interp r (List.map (term env) args)) (Decls.VBool true)
    | Logic.Eq (x, y) -> Expr.value_equal (term env x) (term env y)
    | Logic.Not q -> not (prop env q)
    | Logic.And (q, r) -> prop env q && prop env r
    | Logic.Or (q, r) -> prop env q || prop env r
    | Logic.Implies (q, r) -> (not (prop env q)) || prop env r
    | Logic.Iff (q, r) -> prop env q = prop env r
    | Logic.Forall _ | Logic.Exists _ ->
      invalid_arg "holds: a quantifier inside the body"
  in
  let rec bind env p values =
    match (p, values) with
    | Logic.Forall (x, q), v :: values -> bind ((x, v) :: env) q values
    | Logic.Forall _, [] | _, _ :: _ ->
      invalid_arg "holds: one value per leading quantifier"
    | p, [] -> prop env p
  in
  bind [] p values

(* Eval's meaning of the row: an operation applied to literals, the
   identity symbolic, of the dimension test_algebra's matrices have. *)
let row_interpretation (c : Decls.carrier) f args =
  let eval = Eval.eval ~mat_dim:3 ~env:[] in
  let apply op = eval (Expr.Op (op, c.c_elem, List.map (fun v -> Expr.Lit v) args)) in
  match (f, c.c_inverse, args) with
  | "op", _, _ -> apply c.c_op
  | "inverse", Some inv, _ -> apply inv
  | "id", _, [] -> eval (Expr.Ident (c.c_elem, c.c_op))
  | _ -> invalid_arg ("row_interpretation: " ^ f)

let ring_interpretation (r : Decls.ring) =
  let row op =
    row_interpretation
      (List.find
         (fun (c : Decls.carrier) -> c.c_elem = r.r_elem && c.c_op = op)
         Decls.carriers)
  in
  let add = row r.r_add and mul = row r.r_mul in
  fun f args ->
    match f with
    | "add" -> add "op" args
    | "zero" -> add "id" args
    | "neg" -> add "inverse" args
    | "mul" -> mul "op" args
    | "one" -> mul "id" args
    | "inv" -> mul "inverse" args
    | _ -> invalid_arg ("ring_interpretation: " ^ f)

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

(* The first string escaper and unescaper: one [Buffer.add_char] per
   byte. *)

let escape_into_reference buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

let string_body_reference src pos =
  let buf = Buffer.create 16 in
  let n = String.length src in
  let rec go pos =
    if pos >= n then Json.fail "at %d: unterminated string" pos
    else
      match src.[pos] with
      | '"' -> pos + 1
      | '\\' ->
        let pos = pos + 1 in
        if pos >= n then Json.fail "at %d: unterminated escape" pos;
        let ch = src.[pos] in
        let pos = pos + 1 in
        let simple c =
          Buffer.add_char buf c;
          go pos
        in
        (match ch with
        | '"' -> simple '"'
        | '\\' -> simple '\\'
        | '/' -> simple '/'
        | 'n' -> simple '\n'
        | 't' -> simple '\t'
        | 'r' -> simple '\r'
        | 'b' -> simple '\b'
        | 'f' -> simple '\012'
        | 'u' ->
          if pos + 4 > n then Json.fail "at %d: truncated \\u escape" pos;
          let hex = String.sub src pos 4 in
          let cp =
            try int_of_string ("0x" ^ hex)
            with _ -> Json.fail "bad \\u escape %s" hex
          in
          let byte b = Buffer.add_char buf (Char.chr b) in
          if cp < 0x80 then byte cp
          else if cp < 0x800 then begin
            byte (0xC0 lor (cp lsr 6));
            byte (0x80 lor (cp land 0x3F))
          end
          else begin
            byte (0xE0 lor (cp lsr 12));
            byte (0x80 lor ((cp lsr 6) land 0x3F));
            byte (0x80 lor (cp land 0x3F))
          end;
          go (pos + 4)
        | _ -> Json.fail "bad escape \\%c" ch)
      | ch ->
        Buffer.add_char buf ch;
        go (pos + 1)
  in
  match go pos with
  | stop -> Ok (Buffer.contents buf, stop)
  | exception Json.Error m -> Error m

(* ------------------------------------------------------------------ *)
(* The flight recorder                                                 *)
(* ------------------------------------------------------------------ *)

module Recorder = Gp_telemetry.Recorder

let dossier_recorder ?capacity ?slowest ~caches () =
  Recorder.create ?capacity ?slowest ~caches ~request:""
    ~wire:(fun ~id:_ line -> line)
    ~response:"" ~fingerprint:(fun ~kind:_ fp -> fp) ()

let record_dossier ?(as_request = false) r ~caches (d : Recorder.dossier) =
  let chain = Array.make (2 * Array.length caches) 0 in
  List.iter
    (fun (name, h, m) ->
      match Array.find_index (String.equal name) caches with
      | Some c ->
        chain.(2 * c) <- h;
        chain.((2 * c) + 1) <- m
      | None -> bad "record_dossier: cache %s is not the recorder's" name)
    d.do_cache_chain;
  Recorder.record r ~id:d.do_id ~kind:d.do_kind
    ~wire:(if as_request then Recorder.Request d.do_wire else Recorder.Line d.do_wire)
    ~generation:d.do_generation ~config:d.do_config ~config_fp:d.do_config_fp
    ~outcome:d.do_outcome ~detail:d.do_detail ~cached:d.do_cached
    ~steps:d.do_steps ~dur_ns:d.do_dur_ns ~response:d.do_response_fp ~chain
    ~spans:d.do_spans
