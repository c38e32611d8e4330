(** Pretty-printer for MiniC programs, in a C-like concrete syntax.
    Used for debugging, test counterexamples, and documentation. *)

val expr_to_string : Ast.expr -> string
val block_to_string : ?indent:int -> Ast.block -> string
val program_to_string : Ast.program -> string
