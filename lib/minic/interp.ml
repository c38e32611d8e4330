open Ast

exception Error of string

type output = O_int of int | O_float of float

type result = { outputs : output list; return_value : int option; steps : int }

type value = Vi of int | Vf of float

let err fmt = Format.kasprintf (fun m -> raise (Error m)) fmt

let as_int = function Vi k -> k | Vf _ -> err "expected an int value"
let as_float = function Vf x -> x | Vi _ -> err "expected a float value"

type cell = Ci of int array | Cf of float array

exception Break_exc
exception Continue_exc
exception Return_exc of value option

type state = {
  prog : program;
  funcs : (string, fundecl) Hashtbl.t;
  globals : (string, value ref) Hashtbl.t;
  arrays : (string, cell) Hashtbl.t;
  slots : fundecl array;  (* fn_table *)
  slot_of : (string, int) Hashtbl.t;
  mutable outputs : output list;
  mutable steps : int;
  max_steps : int;
}

let tick st =
  st.steps <- st.steps + 1;
  if st.steps > st.max_steps then err "interpreter step limit exceeded"

let zero_of = function Tint -> Vi 0 | Tfloat -> Vf 0.0

let rec eval st frame e =
  tick st;
  match e with
  | Int k -> Vi k
  | Float x -> Vf x
  | Var name -> (
    match Hashtbl.find_opt frame name with
    | Some r -> !r
    | None -> err "unknown variable %s" name)
  | Global name -> (
    match Hashtbl.find_opt st.globals name with
    | Some r -> !r
    | None -> err "unknown global %s" name)
  | Load (arr, idx) -> (
    let i = as_int (eval st frame idx) in
    match Hashtbl.find_opt st.arrays arr with
    | Some (Ci cells) ->
      if i < 0 || i >= Array.length cells then
        err "load %s[%d] out of bounds" arr i
      else Vi cells.(i)
    | Some (Cf cells) ->
      if i < 0 || i >= Array.length cells then
        err "load %s[%d] out of bounds" arr i
      else Vf cells.(i)
    | None -> err "unknown array %s" arr)
  | Unop (op, a) -> (
    let v = eval st frame a in
    match (op, v) with
    | Neg, Vi k -> Vi (-k)
    | Neg, Vf x -> Vf (-.x)
    | Lnot, Vi k -> Vi (if k = 0 then 1 else 0)
    | Lnot, Vf _ -> err "! on float"
    | Fsqrt, Vf x -> Vf (sqrt x)
    | Fabs, Vf x -> Vf (Float.abs x)
    | Fexp, Vf x -> Vf (exp x)
    | Flog, Vf x -> Vf (log x)
    | Fsin, Vf x -> Vf (sin x)
    | Fcos, Vf x -> Vf (cos x)
    | (Fsqrt | Fabs | Fexp | Flog | Fsin | Fcos), Vi _ ->
      err "float intrinsic on int")
  | Binop (op, a, b) -> (
    let va = eval st frame a in
    let vb = eval st frame b in
    match (va, vb) with
    | Vi x, Vi y -> (
      match op with
      | Add -> Vi (x + y)
      | Sub -> Vi (x - y)
      | Mul -> Vi (x * y)
      | Div -> if y = 0 then err "division by zero" else Vi (x / y)
      | Rem -> if y = 0 then err "remainder by zero" else Vi (x mod y)
      | Band -> Vi (x land y)
      | Bor -> Vi (x lor y)
      | Bxor -> Vi (x lxor y)
      | Shl -> Vi (x lsl (y land 63))
      | Shr -> Vi (x asr (y land 63))
      | Imin -> Vi (Int.min x y)
      | Imax -> Vi (Int.max x y))
    | Vf x, Vf y -> (
      match op with
      | Add -> Vf (x +. y)
      | Sub -> Vf (x -. y)
      | Mul -> Vf (x *. y)
      | Div -> Vf (x /. y)
      | Imin -> Vf (Float.min x y)
      | Imax -> Vf (Float.max x y)
      | Rem | Band | Bor | Bxor | Shl | Shr -> err "integer operator on floats")
    | _ -> err "mixed-type arithmetic")
  | Cmp (c, a, b) -> (
    let va = eval st frame a in
    let vb = eval st frame b in
    let r =
      match (va, vb) with
      | Vi x, Vi y -> (
        match c with
        | Ceq -> x = y
        | Cne -> x <> y
        | Clt -> x < y
        | Cle -> x <= y
        | Cgt -> x > y
        | Cge -> x >= y)
      | Vf x, Vf y -> (
        match c with
        | Ceq -> x = y
        | Cne -> x <> y
        | Clt -> x < y
        | Cle -> x <= y
        | Cgt -> x > y
        | Cge -> x >= y)
      | _ -> err "mixed-type comparison"
    in
    Vi (if r then 1 else 0))
  | And (a, b) ->
    if as_int (eval st frame a) = 0 then Vi 0
    else Vi (if as_int (eval st frame b) = 0 then 0 else 1)
  | Or (a, b) ->
    if as_int (eval st frame a) <> 0 then Vi 1
    else Vi (if as_int (eval st frame b) = 0 then 0 else 1)
  | Cond (c, a, b) ->
    if as_int (eval st frame c) <> 0 then eval st frame a else eval st frame b
  | Call (name, args) -> (
    match call st frame name args with
    | Some v -> v
    | None -> err "void call to %s in value position" name)
  | Call_ptr (f, args, _) -> (
    match call_slot st frame f args with
    | Some v -> v
    | None -> err "void indirect call in value position")
  | Fnptr name -> (
    match Hashtbl.find_opt st.slot_of name with
    | Some s -> Vi s
    | None -> err "%s not in fn_table" name)
  | Cast (Tint, e) -> (
    match eval st frame e with Vi k -> Vi k | Vf x -> Vi (int_of_float x))
  | Cast (Tfloat, e) -> (
    match eval st frame e with Vf x -> Vf x | Vi k -> Vf (float_of_int k))

and call st frame name args =
  match Hashtbl.find_opt st.funcs name with
  | None -> err "unknown function %s" name
  | Some fd ->
    let values = List.map (eval st frame) args in
    invoke st fd values

and call_slot st frame f args =
  let slot = as_int (eval st frame f) in
  if slot < 0 || slot >= Array.length st.slots then
    err "indirect call through bad slot %d" slot
  else begin
    let fd = st.slots.(slot) in
    let values = List.map (eval st frame) args in
    invoke st fd values
  end

and invoke st fd values =
  if List.length values <> List.length fd.f_params then
    err "call to %s: arity mismatch" fd.f_name;
  let frame = Hashtbl.create 16 in
  List.iter2
    (fun p v ->
      (match (p.p_ty, v) with
      | Tint, Vi _ | Tfloat, Vf _ -> ()
      | _ -> err "call to %s: argument type mismatch" fd.f_name);
      Hashtbl.replace frame p.p_name (ref v))
    fd.f_params values;
  (* hoist locals, zero-initialized *)
  let rec hoist = function
    | Let (name, ty, _) ->
      if not (Hashtbl.mem frame name) then
        Hashtbl.replace frame name (ref (zero_of ty))
    | For (v, _, _, body) ->
      if not (Hashtbl.mem frame v) then Hashtbl.replace frame v (ref (Vi 0));
      List.iter hoist body
    | If (_, a, b) ->
      List.iter hoist a;
      List.iter hoist b
    | While (_, b) -> List.iter hoist b
    | Switch (_, cases, default) ->
      List.iter (fun (_, b) -> List.iter hoist b) cases;
      List.iter hoist default
    | Assign _ | Global_assign _ | Store _ | Expr _ | Return _ | Break
    | Continue | Output _ ->
      ()
  in
  List.iter hoist fd.f_body;
  try
    exec_block st frame fd.f_body;
    (* fall-through: value functions return 0 (mirrors the compiler) *)
    match fd.f_ret with
    | None -> None
    | Some ty -> Some (zero_of ty)
  with Return_exc v -> (
    match (fd.f_ret, v) with
    | None, None -> None
    | Some _, (Some _ as v) -> v
    | _ -> err "return arity mismatch in %s" fd.f_name)

and exec_block st frame block = List.iter (exec st frame) block

and exec st frame stmt =
  tick st;
  match stmt with
  | Let (name, _, e) | Assign (name, e) -> (
    let v = eval st frame e in
    match Hashtbl.find_opt frame name with
    | Some r -> r := v
    | None -> err "unknown variable %s" name)
  | Global_assign (name, e) -> (
    let v = eval st frame e in
    match Hashtbl.find_opt st.globals name with
    | Some r -> r := v
    | None -> err "unknown global %s" name)
  | Store (arr, idx, value) -> (
    let i = as_int (eval st frame idx) in
    let v = eval st frame value in
    match Hashtbl.find_opt st.arrays arr with
    | Some (Ci cells) ->
      if i < 0 || i >= Array.length cells then
        err "store %s[%d] out of bounds" arr i
      else cells.(i) <- as_int v
    | Some (Cf cells) ->
      if i < 0 || i >= Array.length cells then
        err "store %s[%d] out of bounds" arr i
      else cells.(i) <- as_float v
    | None -> err "unknown array %s" arr)
  | If (c, a, b) ->
    if as_int (eval st frame c) <> 0 then exec_block st frame a
    else exec_block st frame b
  | While (c, body) ->
    let continue = ref true in
    while !continue && as_int (eval st frame c) <> 0 do
      try exec_block st frame body with
      | Break_exc -> continue := false
      | Continue_exc -> ()
    done
  | For (var, lo, hi, body) ->
    let home =
      match Hashtbl.find_opt frame var with
      | Some r -> r
      | None -> err "unknown for-variable %s" var
    in
    home := Vi (as_int (eval st frame lo));
    let continue = ref true in
    while !continue && as_int !home < as_int (eval st frame hi) do
      (try exec_block st frame body with
      | Break_exc -> continue := false
      | Continue_exc -> ());
      if !continue then home := Vi (as_int !home + 1)
    done
  | Switch (e, cases, default) -> (
    let k = as_int (eval st frame e) in
    match List.find_opt (fun (labels, _) -> List.mem k labels) cases with
    | Some (_, body) -> exec_block st frame body
    | None -> exec_block st frame default)
  | Expr e -> (
    match e with
    | Call (name, args) -> ignore (call st frame name args)
    | Call_ptr (f, args, _) -> ignore (call_slot st frame f args)
    | _ -> ignore (eval st frame e))
  | Return None -> raise (Return_exc None)
  | Return (Some e) -> raise (Return_exc (Some (eval st frame e)))
  | Break -> raise Break_exc
  | Continue -> raise Continue_exc
  | Output e -> (
    match eval st frame e with
    | Vi k -> st.outputs <- O_int k :: st.outputs
    | Vf x -> st.outputs <- O_float x :: st.outputs)

let run ?(max_steps = 200_000_000) (prog : program) ~iargs ~fargs ~arrays =
  let funcs = Hashtbl.create 16 in
  List.iter (fun f -> Hashtbl.replace funcs f.f_name f) prog.funcs;
  let globals = Hashtbl.create 16 in
  List.iter
    (fun gd ->
      let v =
        match gd.g_ty with
        | Tint -> Vi (int_of_float gd.g_init)
        | Tfloat -> Vf gd.g_init
      in
      Hashtbl.replace globals gd.g_name (ref v))
    prog.globals;
  let array_cells = Hashtbl.create 16 in
  List.iter
    (fun (a : Ast.array_decl) ->
      let cell =
        match a.a_ty with
        | Tint -> Ci (Array.make a.a_size 0)
        | Tfloat -> Cf (Array.make a.a_size 0.0)
      in
      Hashtbl.replace array_cells a.a_name cell)
    prog.arrays;
  (* seeds use the VM naming convention: "$name" targets a global scalar *)
  List.iter
    (fun (name, seed) ->
      if String.length name > 0 && name.[0] = '$' then begin
        let gname = String.sub name 1 (String.length name - 1) in
        match (Hashtbl.find_opt globals gname, seed) with
        | Some r, `Ints [| v |] -> r := Vi v
        | Some r, `Floats [| v |] -> r := Vf v
        | Some _, _ -> err "scalar seed %s must have exactly one element" name
        | None, _ -> err "unknown global seed %s" name
      end
      else
        match (Hashtbl.find_opt array_cells name, seed) with
        | Some (Ci dst), `Ints src ->
          if Array.length src > Array.length dst then
            err "seed for %s too large" name;
          Array.blit src 0 dst 0 (Array.length src)
        | Some (Cf dst), `Floats src ->
          if Array.length src > Array.length dst then
            err "seed for %s too large" name;
          Array.blit src 0 dst 0 (Array.length src)
        | Some _, _ -> err "seed class mismatch for %s" name
        | None, _ -> err "unknown array seed %s" name)
    arrays;
  let slots =
    Array.of_list
      (List.map
         (fun name ->
           match Hashtbl.find_opt funcs name with
           | Some fd -> fd
           | None -> err "fn_table entry %s missing" name)
         prog.fn_table)
  in
  let slot_of = Hashtbl.create 16 in
  List.iteri (fun i n -> Hashtbl.replace slot_of n i) prog.fn_table;
  let st =
    {
      prog;
      funcs;
      globals;
      arrays = array_cells;
      slots;
      slot_of;
      outputs = [];
      steps = 0;
      max_steps;
    }
  in
  let entry =
    match Hashtbl.find_opt funcs prog.entry with
    | Some fd -> fd
    | None -> err "entry %s missing" prog.entry
  in
  let ivals = List.map (fun k -> Vi k) iargs in
  let fvals = List.map (fun x -> Vf x) fargs in
  (* interleave according to parameter order *)
  let values =
    let iq = ref ivals and fq = ref fvals in
    List.map
      (fun p ->
        match p.p_ty with
        | Tint -> (
          match !iq with
          | v :: rest ->
            iq := rest;
            v
          | [] -> err "not enough int arguments for %s" entry.f_name)
        | Tfloat -> (
          match !fq with
          | v :: rest ->
            fq := rest;
            v
          | [] -> err "not enough float arguments for %s" entry.f_name))
      entry.f_params
  in
  let rv = invoke st entry values in
  {
    outputs = List.rev st.outputs;
    return_value = (match rv with Some (Vi k) -> Some k | _ -> None);
    steps = st.steps;
  }
