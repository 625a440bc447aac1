(* The standard world: every registry declaration the libraries ship,
   in one fixed order (generations, and so closure cache keys, depend on
   it). *)
let declare reg =
  Gp_algebra.Decls.declare reg;
  Gp_sequence.Decls.declare reg;
  Gp_graph.Decls.declare reg;
  Gp_linalg.Decls.declare reg;
  Gp_structla.Decls.declare reg

let registry () =
  let reg = Gp_concepts.Registry.create () in
  declare reg;
  reg
