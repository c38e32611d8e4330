type ty = Tint | Tfloat

type unop = Neg | Lnot | Fsqrt | Fabs | Fexp | Flog | Fsin | Fcos

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Rem
  | Band
  | Bor
  | Bxor
  | Shl
  | Shr
  | Imin
  | Imax

type cmp = Ceq | Cne | Clt | Cle | Cgt | Cge

type expr =
  | Int of int
  | Float of float
  | Var of string
  | Global of string
  | Load of string * expr
  | Unop of unop * expr
  | Binop of binop * expr * expr
  | Cmp of cmp * expr * expr
  | And of expr * expr
  | Or of expr * expr
  | Cond of expr * expr * expr
  | Call of string * expr list
  | Call_ptr of expr * expr list * ty option
  | Fnptr of string
  | Cast of ty * expr

type stmt =
  | Let of string * ty * expr
  | Assign of string * expr
  | Global_assign of string * expr
  | Store of string * expr * expr
  | If of expr * block * block
  | While of expr * block
  | For of string * expr * expr * block
  | Switch of expr * (int list * block) list * block
  | Expr of expr
  | Return of expr option
  | Break
  | Continue
  | Output of expr

and block = stmt list

type param = { p_name : string; p_ty : ty }

type fundecl = {
  f_name : string;
  f_params : param list;
  f_ret : ty option;
  f_body : block;
}

type global_decl = { g_name : string; g_ty : ty; g_init : float }
type array_decl = { a_name : string; a_ty : ty; a_size : int }

type program = {
  prog_name : string;
  globals : global_decl list;
  arrays : array_decl list;
  funcs : fundecl list;
  entry : string;
  fn_table : string list;
}

let rec is_pure = function
  | Int _ | Float _ | Var _ | Global _ | Fnptr _ -> true
  | Load (_, e) | Unop (_, e) | Cast (_, e) -> is_pure e
  | Binop (_, a, b) | Cmp (_, a, b) -> is_pure a && is_pure b
  | Cond (c, a, b) -> is_pure c && is_pure a && is_pure b
  | And _ | Or _ | Call _ | Call_ptr _ -> false

let rec iter_exprs_stmt visit = function
  | Let (_, _, e) | Assign (_, e) | Global_assign (_, e) | Expr e | Output e ->
    visit e
  | Store (_, i, v) ->
    visit i;
    visit v
  | If (c, a, b) ->
    visit c;
    List.iter (iter_exprs_stmt visit) a;
    List.iter (iter_exprs_stmt visit) b
  | While (c, body) ->
    visit c;
    List.iter (iter_exprs_stmt visit) body
  | For (_, lo, hi, body) ->
    visit lo;
    visit hi;
    List.iter (iter_exprs_stmt visit) body
  | Switch (e, cases, default) ->
    visit e;
    List.iter (fun (_, b) -> List.iter (iter_exprs_stmt visit) b) cases;
    List.iter (iter_exprs_stmt visit) default
  | Return (Some e) -> visit e
  | Return None | Break | Continue -> ()

let rec map_block rewrite block = List.map (map_stmt rewrite) block

and map_stmt rewrite stmt =
  let stmt =
    match stmt with
    | If (c, a, b) -> If (c, map_block rewrite a, map_block rewrite b)
    | While (c, body) -> While (c, map_block rewrite body)
    | For (v, lo, hi, body) -> For (v, lo, hi, map_block rewrite body)
    | Switch (e, cases, default) ->
      Switch
        ( e,
          List.map (fun (ls, b) -> (ls, map_block rewrite b)) cases,
          map_block rewrite default )
    | Let _ | Assign _ | Global_assign _ | Store _ | Expr _ | Return _ | Break
    | Continue | Output _ ->
      stmt
  in
  rewrite stmt
