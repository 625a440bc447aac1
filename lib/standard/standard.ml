(* The standard world: every registry declaration the libraries ship,
   in one fixed order (generations, and so closure cache keys, depend on
   it). *)
let registry () =
  let reg = Gp_concepts.Registry.create () in
  Gp_algebra.Decls.declare reg;
  Gp_sequence.Decls.declare reg;
  Gp_graph.Decls.declare reg;
  Gp_linalg.Decls.declare reg;
  Gp_structla.Decls.declare reg;
  reg

(* Built on first use, then shared by every server in the process. *)
let the_world = lazy (registry ())
let world () = Lazy.force the_world
