(* Mirrors lint_block, lint_source, gpc_source and optimize_expr in
   perfbench/gen.py. *)

let period = 180

let gpc_source k =
  Printf.sprintf
    "// bench defs %d\n\
     concept B%d<T> {\n\
    \  g%d : T -> T;\n\
    \  axiom involution(a): \"g%d(g%d(a)) = a\";\n\
    \  complexity g%d O(1);\n\
     }\n\
     type b%d { }\n\
     op g%d : b%d -> b%d;\n"
    k k k k k k k k k k

let lint_block i buggy =
  let v = Printf.sprintf "v%d" i
  and it = Printf.sprintf "it%d" i
  and last = Printf.sprintf "last%d" i in
  let erase =
    if buggy then Printf.sprintf "    %s.erase(%s);\n" v it
    else Printf.sprintf "    %s = %s.erase(%s);\n    %s = %s.end();\n" it v it last v
  in
  Printf.sprintf
    "vector<_> %s;\n\
     iter %s = %s.begin();\n\
     iter %s = %s.end();\n\
     while (%s != %s) {\n\
    \  if (p(*%s)) {\n\
     %s  } else {\n\
    \    ++%s;\n\
    \  }\n\
     }"
    v it v last v it last it erase it

let lint_source k =
  let blocks = 1 + (k mod 4) in
  let buggy_every = if k mod 3 = 0 then 2 else 0 in
  let body =
    List.init blocks (fun i -> lint_block i (buggy_every > 0 && i mod buggy_every = 0))
  in
  Printf.sprintf "// bench lint key %d\n%s" k (String.concat "\n" body)

let optimize_expr k =
  let base, one =
    match k mod 4 with
    | 0 -> (Printf.sprintf "x%d * 1 + 0" k, "1")
    | 1 -> (Printf.sprintf "(f%d:float) * 1.0" k, "1.0")
    | 2 -> (Printf.sprintf "x%d - x%d" k k, "1")
    | _ -> (Printf.sprintf "x%d * 0 * 1" k, "1")
  in
  let rec wrap depth e =
    if depth = 0 then e else wrap (depth - 1) (Printf.sprintf "(%s) * %s" e one)
  in
  wrap (k mod 3) base
