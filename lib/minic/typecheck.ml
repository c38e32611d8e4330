open Ast

exception Type_error of string

let err fmt = Format.kasprintf (fun msg -> raise (Type_error msg)) fmt

let ty_name = function Tint -> "int" | Tfloat -> "float"

type env = {
  prog : program;
  globals : (string, ty) Hashtbl.t;
  arrays : (string, ty * int) Hashtbl.t;
  funcs : (string, param list * ty option) Hashtbl.t;
  slots : (string, int) Hashtbl.t;
  (* per function: params and locals, with locals also kept in order *)
  scopes : (string, (string, ty) Hashtbl.t) Hashtbl.t;
  local_order : (string, (string * ty) list) Hashtbl.t;
}

let program env = env.prog

let global_ty env name =
  match Hashtbl.find_opt env.globals name with
  | Some ty -> ty
  | None -> err "unknown global %s" name

let array_info env name =
  match Hashtbl.find_opt env.arrays name with
  | Some info -> info
  | None -> err "unknown array %s" name

let func_sig env name =
  match Hashtbl.find_opt env.funcs name with
  | Some s -> s
  | None -> err "unknown function %s" name

let locals env fname =
  match Hashtbl.find_opt env.local_order fname with
  | Some l -> l
  | None -> err "unknown function %s" fname

(* Hoist all Let-declared locals (and For induction variables) of a body. *)
let collect_locals fname params body =
  let scope = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun p ->
      if Hashtbl.mem scope p.p_name then
        err "%s: duplicate parameter %s" fname p.p_name;
      Hashtbl.add scope p.p_name p.p_ty)
    params;
  let declare name ty ~induction =
    match Hashtbl.find_opt scope name with
    | Some existing ->
      if induction then begin
        if existing <> Tint then
          err "%s: for-variable %s must be int, is %s" fname name
            (ty_name existing)
      end
      else err "%s: duplicate local %s" fname name
    | None ->
      Hashtbl.add scope name ty;
      order := (name, ty) :: !order
  in
  let rec walk = function
    | Let (name, ty, _) -> declare name ty ~induction:false
    | For (var, _, _, body) ->
      declare var Tint ~induction:true;
      List.iter walk body
    | If (_, a, b) ->
      List.iter walk a;
      List.iter walk b
    | While (_, body) -> List.iter walk body
    | Switch (_, cases, default) ->
      List.iter (fun (_, b) -> List.iter walk b) cases;
      List.iter walk default
    | Assign _ | Global_assign _ | Store _ | Expr _ | Return _ | Break
    | Continue | Output _ ->
      ()
  in
  List.iter walk body;
  (scope, List.rev !order)

let rec type_expr_in env fname scope expr =
  let recur = type_expr_in env fname scope in
  let expect what wanted e =
    let got = recur e in
    if got <> wanted then
      err "%s: %s must be %s, is %s" fname what (ty_name wanted) (ty_name got)
  in
  let same_type what a b =
    let ta = recur a and tb = recur b in
    if ta <> tb then
      err "%s: %s mixes %s and %s" fname what (ty_name ta) (ty_name tb);
    ta
  in
  match expr with
  | Int _ -> Tint
  | Float _ -> Tfloat
  | Var name -> (
    match Hashtbl.find_opt scope name with
    | Some ty -> ty
    | None -> err "%s: unknown variable %s" fname name)
  | Global name -> global_ty env name
  | Load (arr, idx) ->
    let ty, _size = array_info env arr in
    expect (Printf.sprintf "index into %s" arr) Tint idx;
    ty
  | Unop (Neg, e) -> recur e
  | Unop (Lnot, e) ->
    expect "operand of !" Tint e;
    Tint
  | Unop ((Fsqrt | Fabs | Fexp | Flog | Fsin | Fcos), e) ->
    expect "float intrinsic operand" Tfloat e;
    Tfloat
  | Binop ((Add | Sub | Mul | Div | Imin | Imax), a, b) ->
    same_type "arithmetic" a b
  | Binop ((Rem | Band | Bor | Bxor | Shl | Shr), a, b) ->
    expect "integer operator operand" Tint a;
    expect "integer operator operand" Tint b;
    Tint
  | Cmp (_, a, b) ->
    let (_ : ty) = same_type "comparison" a b in
    Tint
  | And (a, b) | Or (a, b) ->
    expect "boolean operand" Tint a;
    expect "boolean operand" Tint b;
    Tint
  | Cond (c, a, b) ->
    expect "ternary condition" Tint c;
    same_type "ternary arms" a b
  | Call (name, args) -> (
    let params, ret = func_sig env name in
    check_args env fname scope name params args;
    match ret with
    | Some ty -> ty
    | None -> err "%s: void call to %s used as a value" fname name)
  | Call_ptr (f, args, ret) -> (
    expect "function-pointer value" Tint f;
    List.iter (fun a -> ignore (recur a)) args;
    match ret with
    | Some ty -> ty
    | None -> err "%s: void indirect call used as a value" fname)
  | Fnptr name ->
    if not (Hashtbl.mem env.slots name) then
      err "%s: function %s is not in the pointer table" fname name;
    Tint
  | Cast (ty, e) ->
    let (_ : ty) = recur e in
    ty

and check_args env fname scope callee params args =
  if List.length params <> List.length args then
    err "%s: call to %s passes %d args, expects %d" fname callee
      (List.length args) (List.length params);
  List.iter2
    (fun p a ->
      let got = type_expr_in env fname scope a in
      if got <> p.p_ty then
        err "%s: argument %s of %s must be %s, is %s" fname p.p_name callee
          (ty_name p.p_ty) (ty_name got))
    params args

let type_expr env ~fname expr =
  match Hashtbl.find_opt env.scopes fname with
  | None -> err "unknown function %s" fname
  | Some scope -> type_expr_in env fname scope expr

let check_stmt env fname scope f_ret =
  let texpr = type_expr_in env fname scope in
  let expect_int what e =
    let got = texpr e in
    if got <> Tint then err "%s: %s must be int, is %s" fname what (ty_name got)
  in
  let rec stmt ~in_loop = function
    | Let (name, ty, init) -> (
      match Hashtbl.find_opt scope name with
      | None -> err "%s: local %s was not collected" fname name
      | Some declared ->
        if declared <> ty then
          err "%s: local %s declared both %s and %s" fname name
            (ty_name declared) (ty_name ty);
        let got = texpr init in
        if got <> declared then
          err "%s: initializer of %s (%s) has type %s" fname name
            (ty_name declared) (ty_name got))
    | Assign (name, e) -> (
      match Hashtbl.find_opt scope name with
      | None -> err "%s: unknown variable %s" fname name
      | Some wanted ->
        let got = texpr e in
        if got <> wanted then
          err "%s: assignment to %s (%s) from %s" fname name (ty_name wanted)
            (ty_name got))
    | Global_assign (name, e) ->
      let wanted = global_ty env name in
      let got = texpr e in
      if got <> wanted then
        err "%s: assignment to global %s (%s) from %s" fname name
          (ty_name wanted) (ty_name got)
    | Store (arr, idx, value) ->
      let wanted, _ = array_info env arr in
      expect_int (Printf.sprintf "index into %s" arr) idx;
      let got = texpr value in
      if got <> wanted then
        err "%s: store to %s (%s) from %s" fname arr (ty_name wanted)
          (ty_name got)
    | If (c, a, b) ->
      expect_int "if condition" c;
      List.iter (stmt ~in_loop) a;
      List.iter (stmt ~in_loop) b
    | While (c, body) ->
      expect_int "while condition" c;
      List.iter (stmt ~in_loop:true) body
    | For (var, lo, hi, body) ->
      (match Hashtbl.find_opt scope var with
      | Some Tint -> ()
      | Some Tfloat -> err "%s: for-variable %s must be int" fname var
      | None -> err "%s: for-variable %s not collected" fname var);
      expect_int "for bound" lo;
      expect_int "for bound" hi;
      List.iter (stmt ~in_loop:true) body
    | Switch (e, cases, default) ->
      expect_int "switch selector" e;
      let seen = Hashtbl.create 8 in
      List.iter
        (fun (labels, body) ->
          if labels = [] then err "%s: switch case with no labels" fname;
          List.iter
            (fun l ->
              if Hashtbl.mem seen l then
                err "%s: duplicate switch label %d" fname l;
              Hashtbl.add seen l ())
            labels;
          List.iter (stmt ~in_loop) body)
        cases;
      List.iter (stmt ~in_loop) default
    | Expr (Call (name, args)) ->
      let params, _ret = func_sig env name in
      check_args env fname scope name params args
    | Expr (Call_ptr (f, args, _ret)) ->
      expect_int "function-pointer value" f;
      List.iter (fun a -> ignore (texpr a)) args
    | Expr e -> ignore (texpr e)
    | Return None ->
      if f_ret <> None then err "%s: return without a value" fname
    | Return (Some e) -> (
      match f_ret with
      | None -> err "%s: returning a value from a procedure" fname
      | Some wanted ->
        let got = texpr e in
        if got <> wanted then
          err "%s: returning %s, expected %s" fname (ty_name got)
            (ty_name wanted))
    | Break -> if not in_loop then err "%s: break outside a loop" fname
    | Continue -> if not in_loop then err "%s: continue outside a loop" fname
    | Output e -> ignore (texpr e)
  in
  stmt

let check (prog : program) =
  let env =
    {
      prog;
      globals = Hashtbl.create 16;
      arrays = Hashtbl.create 16;
      funcs = Hashtbl.create 16;
      slots = Hashtbl.create 16;
      scopes = Hashtbl.create 16;
      local_order = Hashtbl.create 16;
    }
  in
  List.iter
    (fun gd ->
      if Hashtbl.mem env.globals gd.g_name then
        err "duplicate global %s" gd.g_name;
      Hashtbl.add env.globals gd.g_name gd.g_ty)
    prog.globals;
  List.iter
    (fun ad ->
      if Hashtbl.mem env.arrays ad.a_name then err "duplicate array %s" ad.a_name;
      if ad.a_size <= 0 then err "array %s has size %d" ad.a_name ad.a_size;
      Hashtbl.add env.arrays ad.a_name (ad.a_ty, ad.a_size))
    prog.arrays;
  List.iter
    (fun fd ->
      if Hashtbl.mem env.funcs fd.f_name then
        err "duplicate function %s" fd.f_name;
      Hashtbl.add env.funcs fd.f_name (fd.f_params, fd.f_ret))
    prog.funcs;
  List.iteri
    (fun slot name ->
      if not (Hashtbl.mem env.funcs name) then
        err "fn_table entry %s is not a function" name;
      if Hashtbl.mem env.slots name then err "fn_table repeats %s" name;
      Hashtbl.add env.slots name slot)
    prog.fn_table;
  if not (Hashtbl.mem env.funcs prog.entry) then
    err "entry function %s is not defined" prog.entry;
  List.iter
    (fun fd ->
      let scope, order = collect_locals fd.f_name fd.f_params fd.f_body in
      Hashtbl.add env.scopes fd.f_name scope;
      Hashtbl.add env.local_order fd.f_name order;
      let check1 = check_stmt env fd.f_name scope fd.f_ret in
      List.iter (check1 ~in_loop:false) fd.f_body)
    prog.funcs;
  env
