open Fisher92_ir
open Insn

exception Trap = Machine.Trap

type output = Machine.output = Out_int of int | Out_float of float

type result = Machine.result = {
  kind_counts : int array;
  total : int;
  site_encountered : int array;
  site_taken : int array;
  rets_from_direct : int;
  rets_from_indirect : int;
  outputs : output list;
  return_value : int option;
  dumped : (string * [ `Ints of int array | `Floats of float array ]) list;
  gap_histogram : int array;
  gap_count : int;
  gap_sum : int;
}

type engine = Machine.engine = Interp | Threaded

let engine_name = Machine.engine_name
let engine_of_string = Machine.engine_of_string
let default_engine = Machine.default_engine

(* Indices into [kind_counts], in the order of [Insn.all_kinds]. *)
let k_ialu = Machine.k_ialu
and k_falu = Machine.k_falu
and k_mem = Machine.k_mem
and k_cbranch = Machine.k_cbranch
and k_jump = Machine.k_jump
and k_call = Machine.k_call
and k_callind = Machine.k_callind
and k_ret = Machine.k_ret
and k_output = Machine.k_output
and k_halt = Machine.k_halt

let n_kinds = Machine.n_kinds
let kind_index = Machine.kind_index
let kind_count r k = r.kind_counts.(kind_index k)
let conditional_branches r = r.kind_counts.(k_cbranch)

let mispredicts r ~taken =
  if Array.length taken <> Array.length r.site_encountered then
    invalid_arg "Vm.mispredicts: prediction array size mismatch";
  let acc = ref 0 in
  Array.iteri
    (fun s n ->
      let t = r.site_taken.(s) in
      acc := !acc + if taken.(s) then n - t else t)
    r.site_encountered;
  !acc

type config = Machine.config = {
  fuel : int option;
  max_outputs : int;
  on_branch : (site -> bool -> unit) option;
  predicted : bool array option;
  dump_arrays : string list;
  engine : engine option;
}

let default_config = Machine.default_config

type mem_cell = Machine.mem_cell = Mi of int array | Mf of float array
type ret_value = Machine.ret_value = R_none | R_int of int | R_float of float

(* The reference interpreter: a classic per-instruction dispatch loop,
   kept as the oracle the closure-threaded engine ([Exec]) is checked
   against.  [mem] comes pre-seeded from [Machine.init_mem] so both
   engines share the seeding (and its error messages) exactly. *)
let run_interp ~(config : config) ~(mem : mem_cell array) (p : Program.t)
    ~iargs ~fargs =
  let n_sites = Program.n_sites p in
  let kind_counts = Array.make n_kinds 0 in
  let site_encountered = Array.make n_sites 0 in
  let site_taken = Array.make n_sites 0 in
  let rets_from_direct = ref 0 in
  let rets_from_indirect = ref 0 in
  let outputs = ref [] in
  let n_outputs = ref 0 in
  let fuel = ref (match config.fuel with Some f -> f | None -> max_int) in
  (* break-gap tracking, active only when a prediction is supplied *)
  let executed = ref 0 in
  let gaps = Machine.Gaps.create () in
  let record_break () = Machine.Gaps.break gaps ~executed:!executed in
  (* the per-branch observation hook, prebound once so the hook-free
     path tests a single [None] per branch instead of two config fields *)
  let branch_note = Machine.branch_note ~config ~gaps ~executed in
  let gap_calls = config.predicted <> None in
  let trap f pc fmt =
    Format.kasprintf
      (fun msg ->
        raise (Trap (Printf.sprintf "%s/%s@%d: %s" p.pname f pc msg)))
      fmt
  in
  let iarr fname pc a idx =
    match mem.(a) with
    | Mi cells ->
      if idx < 0 || idx >= Array.length cells then
        trap fname pc "index %d out of bounds for %s[%d]" idx
          p.arrays.(a).aname (Array.length cells)
      else cells
    | Mf _ -> trap fname pc "int access to float array"
  in
  let farr fname pc a idx =
    match mem.(a) with
    | Mf cells ->
      if idx < 0 || idx >= Array.length cells then
        trap fname pc "index %d out of bounds for %s[%d]" idx
          p.arrays.(a).aname (Array.length cells)
      else cells
    | Mi _ -> trap fname pc "float access to int array"
  in
  let ibin_eval fname pc op a b =
    match op with
    | Add -> a + b
    | Sub -> a - b
    | Mul -> a * b
    | Div -> if b = 0 then trap fname pc "division by zero" else a / b
    | Rem -> if b = 0 then trap fname pc "remainder by zero" else a mod b
    | And -> a land b
    | Or -> a lor b
    | Xor -> a lxor b
    | Shl -> a lsl (b land 63)
    | Shr -> a asr (b land 63)
    | Min -> if a < b then a else b
    | Max -> if a > b then a else b
  in
  let fbin_eval op a b =
    match op with
    | Fadd -> a +. b
    | Fsub -> a -. b
    | Fmul -> a *. b
    | Fdiv -> a /. b
    | Fmin -> Float.min a b
    | Fmax -> Float.max a b
  in
  let funop_eval op a =
    match op with
    | Fneg -> -.a
    | Fabs -> Float.abs a
    | Fsqrt -> sqrt a
    | Fexp -> exp a
    | Flog -> log a
    | Fsin -> sin a
    | Fcos -> cos a
  in
  let icmp_eval c (a : int) b =
    let r =
      match c with
      | Eq -> a = b
      | Ne -> a <> b
      | Lt -> a < b
      | Le -> a <= b
      | Gt -> a > b
      | Ge -> a >= b
    in
    if r then 1 else 0
  in
  let fcmp_eval c (a : float) (b : float) =
    let r =
      match c with
      | Eq -> a = b
      | Ne -> a <> b
      | Lt -> a < b
      | Le -> a <= b
      | Gt -> a > b
      | Ge -> a >= b
    in
    if r then 1 else 0
  in
  let emit fname pc out =
    incr n_outputs;
    if !n_outputs > config.max_outputs then trap fname pc "output overflow"
    else outputs := out :: !outputs
  in
  (* [exec fid ivals fvals] runs function [fid] to its return.  Simulated
     calls become OCaml calls, so the OCaml stack mirrors the simulated one. *)
  let rec exec fid (ivals : int array) (fvals : float array) : ret_value =
    let f = p.funcs.(fid) in
    let ir = Array.make f.n_iregs 0 in
    let fr = Array.make f.n_fregs 0.0 in
    Array.blit ivals 0 ir 0 (Array.length ivals);
    Array.blit fvals 0 fr 0 (Array.length fvals);
    let code = f.code in
    let fname = f.fname in
    let pc = ref 0 in
    let halted = ref false in
    let result = ref R_none in
    let do_call pc0 callee iargs fargs dst ~indirect =
      let g = p.funcs.(callee) in
      let avals = Array.make g.n_iparams 0 in
      let bvals = Array.make g.n_fparams 0.0 in
      List.iteri (fun i r -> avals.(i) <- ir.(r)) iargs;
      List.iteri (fun i r -> bvals.(i) <- fr.(r)) fargs;
      if indirect && gap_calls then record_break ();
      let rv = exec callee avals bvals in
      (* The callee's Ret already executed; attribute it to the right class. *)
      if indirect then begin
        incr rets_from_indirect;
        if gap_calls then record_break ()
      end
      else incr rets_from_direct;
      match (dst, rv) with
      | No_dest, _ -> ()
      | Int_dest d, R_int v -> ir.(d) <- v
      | Float_dest d, R_float v -> fr.(d) <- v
      | Int_dest _, (R_none | R_float _) ->
        trap fname pc0 "call to %s: expected an integer result" g.fname
      | Float_dest _, (R_none | R_int _) ->
        trap fname pc0 "call to %s: expected a float result" g.fname
    in
    while not !halted do
      let here = !pc in
      if here < 0 || here >= Array.length code then
        trap fname here "pc out of range";
      decr fuel;
      if !fuel < 0 then trap fname here "out of fuel";
      incr executed;
      pc := here + 1;
      (match code.(here) with
      | Iconst (d, k) ->
        kind_counts.(k_ialu) <- kind_counts.(k_ialu) + 1;
        ir.(d) <- k
      | Fconst (d, x) ->
        kind_counts.(k_falu) <- kind_counts.(k_falu) + 1;
        fr.(d) <- x
      | Imov (d, s) ->
        kind_counts.(k_ialu) <- kind_counts.(k_ialu) + 1;
        ir.(d) <- ir.(s)
      | Fmov (d, s) ->
        kind_counts.(k_falu) <- kind_counts.(k_falu) + 1;
        fr.(d) <- fr.(s)
      | Ibin (op, d, a, b) ->
        kind_counts.(k_ialu) <- kind_counts.(k_ialu) + 1;
        ir.(d) <- ibin_eval fname here op ir.(a) ir.(b)
      | Ibini (op, d, a, k) ->
        kind_counts.(k_ialu) <- kind_counts.(k_ialu) + 1;
        ir.(d) <- ibin_eval fname here op ir.(a) k
      | Inot (d, s) ->
        kind_counts.(k_ialu) <- kind_counts.(k_ialu) + 1;
        ir.(d) <- (if ir.(s) = 0 then 1 else 0)
      | Ineg (d, s) ->
        kind_counts.(k_ialu) <- kind_counts.(k_ialu) + 1;
        ir.(d) <- -ir.(s)
      | Fbin (op, d, a, b) ->
        kind_counts.(k_falu) <- kind_counts.(k_falu) + 1;
        fr.(d) <- fbin_eval op fr.(a) fr.(b)
      | Funop (op, d, s) ->
        kind_counts.(k_falu) <- kind_counts.(k_falu) + 1;
        fr.(d) <- funop_eval op fr.(s)
      | Icmp (c, d, a, b) ->
        kind_counts.(k_ialu) <- kind_counts.(k_ialu) + 1;
        ir.(d) <- icmp_eval c ir.(a) ir.(b)
      | Fcmp (c, d, a, b) ->
        kind_counts.(k_ialu) <- kind_counts.(k_ialu) + 1;
        ir.(d) <- fcmp_eval c fr.(a) fr.(b)
      | Itof (d, s) ->
        kind_counts.(k_falu) <- kind_counts.(k_falu) + 1;
        fr.(d) <- float_of_int ir.(s)
      | Ftoi (d, s) ->
        kind_counts.(k_falu) <- kind_counts.(k_falu) + 1;
        ir.(d) <- int_of_float fr.(s)
      | Iload (d, a, i) ->
        kind_counts.(k_mem) <- kind_counts.(k_mem) + 1;
        let idx = ir.(i) in
        ir.(d) <- (iarr fname here a idx).(idx)
      | Istore (a, i, s) ->
        kind_counts.(k_mem) <- kind_counts.(k_mem) + 1;
        let idx = ir.(i) in
        (iarr fname here a idx).(idx) <- ir.(s)
      | Fload (d, a, i) ->
        kind_counts.(k_mem) <- kind_counts.(k_mem) + 1;
        let idx = ir.(i) in
        fr.(d) <- (farr fname here a idx).(idx)
      | Fstore (a, i, s) ->
        kind_counts.(k_mem) <- kind_counts.(k_mem) + 1;
        let idx = ir.(i) in
        (farr fname here a idx).(idx) <- fr.(s)
      | Select (d, c, a, b) ->
        kind_counts.(k_ialu) <- kind_counts.(k_ialu) + 1;
        ir.(d) <- (if ir.(c) <> 0 then ir.(a) else ir.(b))
      | Fselect (d, c, a, b) ->
        kind_counts.(k_falu) <- kind_counts.(k_falu) + 1;
        fr.(d) <- (if ir.(c) <> 0 then fr.(a) else fr.(b))
      | Br { cond; target; site } ->
        kind_counts.(k_cbranch) <- kind_counts.(k_cbranch) + 1;
        let taken = ir.(cond) <> 0 in
        site_encountered.(site) <- site_encountered.(site) + 1;
        if taken then begin
          site_taken.(site) <- site_taken.(site) + 1;
          pc := target
        end;
        (match branch_note with None -> () | Some f -> f site taken)
      | Jump target ->
        kind_counts.(k_jump) <- kind_counts.(k_jump) + 1;
        pc := target
      | Call { callee; iargs; fargs; dst } ->
        kind_counts.(k_call) <- kind_counts.(k_call) + 1;
        do_call here callee iargs fargs dst ~indirect:false
      | Callind { table; iargs; fargs; dst } ->
        kind_counts.(k_callind) <- kind_counts.(k_callind) + 1;
        let slot = ir.(table) in
        if slot < 0 || slot >= Array.length p.func_table then
          trap fname here "indirect call through bad slot %d" slot
        else do_call here p.func_table.(slot) iargs fargs dst ~indirect:true
      | Ret rv ->
        kind_counts.(k_ret) <- kind_counts.(k_ret) + 1;
        result :=
          (match rv with
          | Ret_none -> R_none
          | Ret_int r -> R_int ir.(r)
          | Ret_float r -> R_float fr.(r));
        halted := true
      | Output r ->
        kind_counts.(k_output) <- kind_counts.(k_output) + 1;
        emit fname here (Out_int ir.(r))
      | Foutput r ->
        kind_counts.(k_output) <- kind_counts.(k_output) + 1;
        emit fname here (Out_float fr.(r))
      | Halt ->
        kind_counts.(k_halt) <- kind_counts.(k_halt) + 1;
        halted := true)
    done;
    !result
  in
  let rv = exec p.entry (Array.of_list iargs) (Array.of_list fargs) in
  {
    kind_counts;
    total = Array.fold_left ( + ) 0 kind_counts;
    site_encountered;
    site_taken;
    rets_from_direct = !rets_from_direct;
    rets_from_indirect = !rets_from_indirect;
    outputs = List.rev !outputs;
    return_value = (match rv with R_int v -> Some v | R_none | R_float _ -> None);
    dumped = Machine.dump p mem config.dump_arrays;
    gap_histogram = gaps.Machine.Gaps.hist;
    gap_count = gaps.Machine.Gaps.count;
    gap_sum = gaps.Machine.Gaps.sum;
  }

let run ?(config = default_config) (p : Program.t) ~iargs ~fargs ~arrays =
  let mem = Machine.init_mem p arrays in
  Machine.check_entry_args p ~iargs ~fargs;
  let engine =
    match config.engine with Some e -> e | None -> default_engine ()
  in
  match engine with
  | Interp -> run_interp ~config ~mem p ~iargs ~fargs
  | Threaded ->
    (* the threaded engine skips register bounds checks, so a program
       they would catch runs on the interpreter, which raises for it *)
    if Exec.in_range p then Exec.run ~config ~mem p ~iargs ~fargs
    else run_interp ~config ~mem p ~iargs ~fargs
