(** Abstract syntax of MiniC, the source language of the workload programs.

    MiniC models the C/FORTRAN subset the paper's programs were written in:
    two scalar types (int, float), named global scalars and global arrays as
    the only persistent state, function-scoped locals, structured control
    flow ([if]/[while]/[for]/[switch] with [break]/[continue]), direct calls
    and calls through function pointers.  The compiler lowers it to the IR
    the way the Multiflow front end lowered C: short-circuit booleans and
    [switch] become conditional-branch cascades; trivial conditionals may
    become [select] instructions. *)

type ty = Tint | Tfloat

type unop =
  | Neg  (** arithmetic negation, both types *)
  | Lnot  (** logical not: 1 if zero, else 0; int only *)
  | Fsqrt
  | Fabs
  | Fexp
  | Flog
  | Fsin
  | Fcos  (** float intrinsics *)

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Rem  (** int only *)
  | Band
  | Bor
  | Bxor
  | Shl
  | Shr  (** int only *)
  | Imin
  | Imax  (** both types (lowered to min/max ops) *)

type cmp = Ceq | Cne | Clt | Cle | Cgt | Cge

type expr =
  | Int of int
  | Float of float
  | Var of string  (** local or parameter *)
  | Global of string  (** global scalar *)
  | Load of string * expr  (** array element *)
  | Unop of unop * expr
  | Binop of binop * expr * expr
  | Cmp of cmp * expr * expr  (** 0/1-valued *)
  | And of expr * expr  (** short-circuit; 0/1-valued; compiles to a branch *)
  | Or of expr * expr  (** short-circuit; 0/1-valued; compiles to a branch *)
  | Cond of expr * expr * expr
      (** ternary; compiled branch-free (select) when both arms are pure *)
  | Call of string * expr list
  | Call_ptr of expr * expr list * ty option
      (** call through a function-pointer value (a slot index produced by
          [Fnptr]); the annotation is the result type, [None] = procedure *)
  | Fnptr of string  (** slot index of a function in the program's table *)
  | Cast of ty * expr  (** conversion to the named type *)

type stmt =
  | Let of string * ty * expr  (** declare a function-scoped local *)
  | Assign of string * expr  (** local or parameter *)
  | Global_assign of string * expr
  | Store of string * expr * expr  (** [Store (arr, index, value)] *)
  | If of expr * block * block
  | While of expr * block  (** bottom-test loop, like the paper's compiler *)
  | For of string * expr * expr * block
      (** [For (v, lo, hi, body)]: v from lo while v < hi, step 1 *)
  | Switch of expr * (int list * block) list * block
      (** cases (possibly multi-label) in source order, then default;
          lowered to a cascade of conditional branches *)
  | Expr of expr  (** expression for effect (calls) *)
  | Return of expr option
  | Break
  | Continue
  | Output of expr  (** append to the run's output stream *)

and block = stmt list

type param = { p_name : string; p_ty : ty }

type fundecl = {
  f_name : string;
  f_params : param list;
  f_ret : ty option;
  f_body : block;
}

type global_decl = { g_name : string; g_ty : ty; g_init : float }
(** scalar global; [g_init] is truncated for int globals *)

type array_decl = { a_name : string; a_ty : ty; a_size : int }

type program = {
  prog_name : string;
  globals : global_decl list;
  arrays : array_decl list;
  funcs : fundecl list;
  entry : string;
  fn_table : string list;
      (** functions reachable through pointers, in slot order *)
}

val is_pure : expr -> bool
(** No calls and no short-circuit operators: safe to evaluate eagerly and
    speculatively (loads are pure in MiniC; arrays cannot be unmapped, and
    bounds traps are a simulator artefact the optimizer may ignore, like a
    real ILP compiler speculating loads). *)

val iter_exprs_stmt : (expr -> unit) -> stmt -> unit
(** Visit every top-level expression of a statement and, recursively, of
    its sub-blocks. *)

val map_block : (stmt -> stmt) -> block -> block
(** Bottom-up statement rewrite over nested blocks. *)
