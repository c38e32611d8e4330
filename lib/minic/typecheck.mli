(** Type checking and name resolution for MiniC programs.

    MiniC is statically typed with two scalar types.  Locals are
    function-scoped (hoisted, like C89 declarations); reading a local before
    its [Let] executes yields zero, which the checker permits.  The checker
    also resolves the function-pointer table and verifies control-flow
    placement rules ([Break]/[Continue] only inside loops, [Return] arity).

    The resulting environment is consumed by {!Lower} and {!Interp}. *)

exception Type_error of string

type env

val check : Ast.program -> env
(** Full program check.  @raise Type_error with a located message. *)

val program : env -> Ast.program
val global_ty : env -> string -> Ast.ty
val array_info : env -> string -> Ast.ty * int
val func_sig : env -> string -> Ast.param list * Ast.ty option

val locals : env -> string -> (string * Ast.ty) list
(** All locals (excluding parameters) of the named function, in first-
    occurrence order. *)

val type_expr : env -> fname:string -> Ast.expr -> Ast.ty
(** Type of a well-typed expression in the context of [fname].
    @raise Type_error for void calls in value position. *)
