(* The closure-threaded execution engine.

   [run] pre-compiles every function once per run: basic blocks become
   arrays of [frame -> unit] closures with operands, array cells, trap
   messages, and hook variants all resolved at compile time, and each
   block ends in a terminator closure returning the next block id (-1
   ends the activation).  The driver loop then executes without any
   per-instruction dispatch match, fuel decrement, or hook test.

   Bit-identical to the reference interpreter in [Vm] by construction:

   - fuel and [executed] are charged per block on entry, which is exact
     at every observable point because the only places either can be
     observed (the out-of-fuel trap, break-gap recording at mispredicted
     branches and indirect calls) sit at block terminators — the charge
     for the block equals the interpreter's per-instruction total there.
     An out-of-fuel block entry takes a slow path that replays exactly
     the instructions the remaining fuel pays for, then traps at the
     same pc with the same message;
   - kind counts are deferred: each block keeps a static kind histogram
     and a per-run execution counter, folded into [kind_counts] when the
     run completes (a trap abandons the result, so the deferral is
     unobservable);
   - branch-site counters, hooks, break gaps, outputs, call/return
     accounting, and every trap message fire in the interpreter's order. *)

open Fisher92_ir
open Insn
open Machine

type frame = { ir : int array; fr : float array; mutable rv : ret_value }

type block = {
  b_start : int;  (* pc of the first instruction *)
  b_len : int;  (* dynamic instructions charged per execution *)
  b_ops : (frame -> unit) array;  (* straight-line body, sans terminator *)
  b_term : frame -> int;  (* next block id, or -1 to return *)
  b_kinds : (int * int) list;  (* (kind index, static count) per block *)
}

type cfunc = {
  c_fname : string;
  c_niregs : int;
  c_nfregs : int;
  c_blocks : block array;
  c_exec : int array;  (* per-block execution counts, this run *)
}

let is_terminator = function
  | Br _ | Jump _ | Call _ | Callind _ | Ret _ | Halt -> true
  | _ -> false

let run ~(config : config) ~(mem : mem_cell array) (p : Program.t) ~iargs
    ~fargs =
  let n_sites = Program.n_sites p in
  let site_encountered = Array.make n_sites 0 in
  let site_taken = Array.make n_sites 0 in
  let rets_from_direct = ref 0 in
  let rets_from_indirect = ref 0 in
  let outputs = ref [] in
  let n_outputs = ref 0 in
  let fuel = ref (match config.fuel with Some f -> f | None -> max_int) in
  let executed = ref 0 in
  let gaps = Gaps.create () in
  let note = branch_note ~config ~gaps ~executed in
  let gap_calls = config.predicted <> None in
  let exec_ref : (int -> int array -> float array -> ret_value) ref =
    ref (fun _ _ _ -> R_none)
  in
  let compile (f : Program.func) =
    let code = f.code in
    let len = Array.length code in
    let fname = f.fname in
    let trap pc fmt = trap p.pname fname pc fmt in
    let emit pc out =
      incr n_outputs;
      if !n_outputs > config.max_outputs then trap pc "output overflow"
      else outputs := out :: !outputs
    in
    (* block leaders: entry, every in-range control target, and the
       instruction after every terminator *)
    let leader = Array.make (Int.max 1 len) false in
    if len > 0 then leader.(0) <- true;
    Array.iteri
      (fun pc insn ->
        (match insn with
        | Br { target; _ } | Jump target ->
          if target >= 0 && target < len then leader.(target) <- true
        | _ -> ());
        if is_terminator insn && pc + 1 < len then leader.(pc + 1) <- true)
      code;
    let starts =
      let acc = ref [] in
      for pc = len - 1 downto 0 do
        if leader.(pc) then acc := pc :: !acc
      done;
      Array.of_list !acc
    in
    let n_blocks = Array.length starts in
    let bid_of = Array.make (Int.max 1 len) (-1) in
    Array.iteri (fun b s -> bid_of.(s) <- b) starts;
    (* the block id a control transfer to [pc'] lands in, or -1 when the
       transfer must trap "pc out of range" at run time *)
    let resolve pc' = if pc' >= 0 && pc' < len then bid_of.(pc') else -1 in
    let compile_op pc insn : frame -> unit =
      match insn with
      | Iconst (d, k) -> fun fm -> fm.ir.(d) <- k
      | Fconst (d, x) -> fun fm -> fm.fr.(d) <- x
      | Imov (d, s) -> fun fm -> fm.ir.(d) <- fm.ir.(s)
      | Fmov (d, s) -> fun fm -> fm.fr.(d) <- fm.fr.(s)
      | Ibin (op, d, a, b) -> (
        match op with
        | Add -> fun fm -> fm.ir.(d) <- fm.ir.(a) + fm.ir.(b)
        | Sub -> fun fm -> fm.ir.(d) <- fm.ir.(a) - fm.ir.(b)
        | Mul -> fun fm -> fm.ir.(d) <- fm.ir.(a) * fm.ir.(b)
        | Div ->
          fun fm ->
            let y = fm.ir.(b) in
            if y = 0 then trap pc "division by zero"
            else fm.ir.(d) <- fm.ir.(a) / y
        | Rem ->
          fun fm ->
            let y = fm.ir.(b) in
            if y = 0 then trap pc "remainder by zero"
            else fm.ir.(d) <- fm.ir.(a) mod y
        | And -> fun fm -> fm.ir.(d) <- fm.ir.(a) land fm.ir.(b)
        | Or -> fun fm -> fm.ir.(d) <- fm.ir.(a) lor fm.ir.(b)
        | Xor -> fun fm -> fm.ir.(d) <- fm.ir.(a) lxor fm.ir.(b)
        | Shl -> fun fm -> fm.ir.(d) <- fm.ir.(a) lsl (fm.ir.(b) land 63)
        | Shr -> fun fm -> fm.ir.(d) <- fm.ir.(a) asr (fm.ir.(b) land 63)
        | Min ->
          fun fm ->
            let x = fm.ir.(a) and y = fm.ir.(b) in
            fm.ir.(d) <- (if x < y then x else y)
        | Max ->
          fun fm ->
            let x = fm.ir.(a) and y = fm.ir.(b) in
            fm.ir.(d) <- (if x > y then x else y))
      | Ibini (op, d, a, k) -> (
        match op with
        | Add -> fun fm -> fm.ir.(d) <- fm.ir.(a) + k
        | Sub -> fun fm -> fm.ir.(d) <- fm.ir.(a) - k
        | Mul -> fun fm -> fm.ir.(d) <- fm.ir.(a) * k
        | Div ->
          if k = 0 then fun _ -> trap pc "division by zero"
          else fun fm -> fm.ir.(d) <- fm.ir.(a) / k
        | Rem ->
          if k = 0 then fun _ -> trap pc "remainder by zero"
          else fun fm -> fm.ir.(d) <- fm.ir.(a) mod k
        | And -> fun fm -> fm.ir.(d) <- fm.ir.(a) land k
        | Or -> fun fm -> fm.ir.(d) <- fm.ir.(a) lor k
        | Xor -> fun fm -> fm.ir.(d) <- fm.ir.(a) lxor k
        | Shl ->
          let k = k land 63 in
          fun fm -> fm.ir.(d) <- fm.ir.(a) lsl k
        | Shr ->
          let k = k land 63 in
          fun fm -> fm.ir.(d) <- fm.ir.(a) asr k
        | Min ->
          fun fm ->
            let x = fm.ir.(a) in
            fm.ir.(d) <- (if x < k then x else k)
        | Max ->
          fun fm ->
            let x = fm.ir.(a) in
            fm.ir.(d) <- (if x > k then x else k))
      | Inot (d, s) -> fun fm -> fm.ir.(d) <- (if fm.ir.(s) = 0 then 1 else 0)
      | Ineg (d, s) -> fun fm -> fm.ir.(d) <- -fm.ir.(s)
      | Fbin (op, d, a, b) -> (
        match op with
        | Fadd -> fun fm -> fm.fr.(d) <- fm.fr.(a) +. fm.fr.(b)
        | Fsub -> fun fm -> fm.fr.(d) <- fm.fr.(a) -. fm.fr.(b)
        | Fmul -> fun fm -> fm.fr.(d) <- fm.fr.(a) *. fm.fr.(b)
        | Fdiv -> fun fm -> fm.fr.(d) <- fm.fr.(a) /. fm.fr.(b)
        | Fmin -> fun fm -> fm.fr.(d) <- Float.min fm.fr.(a) fm.fr.(b)
        | Fmax -> fun fm -> fm.fr.(d) <- Float.max fm.fr.(a) fm.fr.(b))
      | Funop (op, d, s) -> (
        match op with
        | Fneg -> fun fm -> fm.fr.(d) <- -.fm.fr.(s)
        | Fabs -> fun fm -> fm.fr.(d) <- Float.abs fm.fr.(s)
        | Fsqrt -> fun fm -> fm.fr.(d) <- sqrt fm.fr.(s)
        | Fexp -> fun fm -> fm.fr.(d) <- exp fm.fr.(s)
        | Flog -> fun fm -> fm.fr.(d) <- log fm.fr.(s)
        | Fsin -> fun fm -> fm.fr.(d) <- sin fm.fr.(s)
        | Fcos -> fun fm -> fm.fr.(d) <- cos fm.fr.(s))
      | Icmp (c, d, a, b) -> (
        match c with
        | Eq -> fun fm -> fm.ir.(d) <- (if fm.ir.(a) = fm.ir.(b) then 1 else 0)
        | Ne -> fun fm -> fm.ir.(d) <- (if fm.ir.(a) <> fm.ir.(b) then 1 else 0)
        | Lt -> fun fm -> fm.ir.(d) <- (if fm.ir.(a) < fm.ir.(b) then 1 else 0)
        | Le -> fun fm -> fm.ir.(d) <- (if fm.ir.(a) <= fm.ir.(b) then 1 else 0)
        | Gt -> fun fm -> fm.ir.(d) <- (if fm.ir.(a) > fm.ir.(b) then 1 else 0)
        | Ge -> fun fm -> fm.ir.(d) <- (if fm.ir.(a) >= fm.ir.(b) then 1 else 0)
        )
      | Fcmp (c, d, a, b) -> (
        match c with
        | Eq -> fun fm -> fm.ir.(d) <- (if fm.fr.(a) = fm.fr.(b) then 1 else 0)
        | Ne -> fun fm -> fm.ir.(d) <- (if fm.fr.(a) <> fm.fr.(b) then 1 else 0)
        | Lt -> fun fm -> fm.ir.(d) <- (if fm.fr.(a) < fm.fr.(b) then 1 else 0)
        | Le -> fun fm -> fm.ir.(d) <- (if fm.fr.(a) <= fm.fr.(b) then 1 else 0)
        | Gt -> fun fm -> fm.ir.(d) <- (if fm.fr.(a) > fm.fr.(b) then 1 else 0)
        | Ge -> fun fm -> fm.ir.(d) <- (if fm.fr.(a) >= fm.fr.(b) then 1 else 0)
        )
      | Itof (d, s) -> fun fm -> fm.fr.(d) <- float_of_int fm.ir.(s)
      | Ftoi (d, s) -> fun fm -> fm.ir.(d) <- int_of_float fm.fr.(s)
      | Iload (d, a, i) -> (
        match mem.(a) with
        | Mi cells ->
          let alen = Array.length cells and aname = p.arrays.(a).aname in
          fun fm ->
            let idx = fm.ir.(i) in
            if idx < 0 || idx >= alen then
              trap pc "index %d out of bounds for %s[%d]" idx aname alen
            else fm.ir.(d) <- Array.unsafe_get cells idx
        | Mf _ -> fun _ -> trap pc "int access to float array")
      | Istore (a, i, s) -> (
        match mem.(a) with
        | Mi cells ->
          let alen = Array.length cells and aname = p.arrays.(a).aname in
          fun fm ->
            let idx = fm.ir.(i) in
            if idx < 0 || idx >= alen then
              trap pc "index %d out of bounds for %s[%d]" idx aname alen
            else Array.unsafe_set cells idx fm.ir.(s)
        | Mf _ -> fun _ -> trap pc "int access to float array")
      | Fload (d, a, i) -> (
        match mem.(a) with
        | Mf cells ->
          let alen = Array.length cells and aname = p.arrays.(a).aname in
          fun fm ->
            let idx = fm.ir.(i) in
            if idx < 0 || idx >= alen then
              trap pc "index %d out of bounds for %s[%d]" idx aname alen
            else fm.fr.(d) <- Array.unsafe_get cells idx
        | Mi _ -> fun _ -> trap pc "float access to int array")
      | Fstore (a, i, s) -> (
        match mem.(a) with
        | Mf cells ->
          let alen = Array.length cells and aname = p.arrays.(a).aname in
          fun fm ->
            let idx = fm.ir.(i) in
            if idx < 0 || idx >= alen then
              trap pc "index %d out of bounds for %s[%d]" idx aname alen
            else Array.unsafe_set cells idx fm.fr.(s)
        | Mi _ -> fun _ -> trap pc "float access to int array")
      | Select (d, c, a, b) ->
        fun fm -> fm.ir.(d) <- (if fm.ir.(c) <> 0 then fm.ir.(a) else fm.ir.(b))
      | Fselect (d, c, a, b) ->
        fun fm -> fm.fr.(d) <- (if fm.ir.(c) <> 0 then fm.fr.(a) else fm.fr.(b))
      | Output r -> fun fm -> emit pc (Out_int fm.ir.(r))
      | Foutput r -> fun fm -> emit pc (Out_float fm.fr.(r))
      | Br _ | Jump _ | Call _ | Callind _ | Ret _ | Halt ->
        assert false (* terminators never appear in a block body *)
    in
    let compile_term pc insn : frame -> int =
      match insn with
      | Br { cond; target; site } -> (
        let bt = resolve target and bf = resolve (pc + 1) in
        match note with
        | None when bt >= 0 && bf >= 0 ->
          (* the hook-free hot path: counters and the block switch only *)
          fun fm ->
            if fm.ir.(cond) <> 0 then begin
              site_encountered.(site) <- site_encountered.(site) + 1;
              site_taken.(site) <- site_taken.(site) + 1;
              bt
            end
            else begin
              site_encountered.(site) <- site_encountered.(site) + 1;
              bf
            end
        | None ->
          fun fm ->
            let taken = fm.ir.(cond) <> 0 in
            site_encountered.(site) <- site_encountered.(site) + 1;
            if taken then begin
              site_taken.(site) <- site_taken.(site) + 1;
              if bt >= 0 then bt else trap target "pc out of range"
            end
            else if bf >= 0 then bf
            else trap (pc + 1) "pc out of range"
        | Some nt ->
          fun fm ->
            let taken = fm.ir.(cond) <> 0 in
            site_encountered.(site) <- site_encountered.(site) + 1;
            if taken then site_taken.(site) <- site_taken.(site) + 1;
            nt site taken;
            if taken then
              if bt >= 0 then bt else trap target "pc out of range"
            else if bf >= 0 then bf
            else trap (pc + 1) "pc out of range")
      | Jump target ->
        let bt = resolve target in
        if bt >= 0 then fun _ -> bt
        else fun _ -> trap target "pc out of range"
      | Call { callee; iargs; fargs; dst } ->
        let bf = resolve (pc + 1) in
        let ia = Array.of_list iargs and fa = Array.of_list fargs in
        let g = p.funcs.(callee) in
        fun fm ->
          let av = Array.make g.n_iparams 0 in
          let bv = Array.make g.n_fparams 0.0 in
          for i = 0 to Array.length ia - 1 do
            av.(i) <- fm.ir.(ia.(i))
          done;
          for i = 0 to Array.length fa - 1 do
            bv.(i) <- fm.fr.(fa.(i))
          done;
          let rv = !exec_ref callee av bv in
          incr rets_from_direct;
          (match (dst, rv) with
          | No_dest, _ -> ()
          | Int_dest d, R_int v -> fm.ir.(d) <- v
          | Float_dest d, R_float v -> fm.fr.(d) <- v
          | Int_dest _, (R_none | R_float _) ->
            trap pc "call to %s: expected an integer result" g.fname
          | Float_dest _, (R_none | R_int _) ->
            trap pc "call to %s: expected a float result" g.fname);
          if bf >= 0 then bf else trap (pc + 1) "pc out of range"
      | Callind { table; iargs; fargs; dst } ->
        let bf = resolve (pc + 1) in
        let ia = Array.of_list iargs and fa = Array.of_list fargs in
        fun fm ->
          let slot = fm.ir.(table) in
          if slot < 0 || slot >= Array.length p.func_table then
            trap pc "indirect call through bad slot %d" slot
          else begin
            let callee = p.func_table.(slot) in
            let g = p.funcs.(callee) in
            let av = Array.make g.n_iparams 0 in
            let bv = Array.make g.n_fparams 0.0 in
            for i = 0 to Array.length ia - 1 do
              av.(i) <- fm.ir.(ia.(i))
            done;
            for i = 0 to Array.length fa - 1 do
              bv.(i) <- fm.fr.(fa.(i))
            done;
            if gap_calls then Gaps.break gaps ~executed:!executed;
            let rv = !exec_ref callee av bv in
            incr rets_from_indirect;
            if gap_calls then Gaps.break gaps ~executed:!executed;
            (match (dst, rv) with
            | No_dest, _ -> ()
            | Int_dest d, R_int v -> fm.ir.(d) <- v
            | Float_dest d, R_float v -> fm.fr.(d) <- v
            | Int_dest _, (R_none | R_float _) ->
              trap pc "call to %s: expected an integer result" g.fname
            | Float_dest _, (R_none | R_int _) ->
              trap pc "call to %s: expected a float result" g.fname);
            if bf >= 0 then bf else trap (pc + 1) "pc out of range"
          end
      | Ret rv -> (
        match rv with
        | Ret_none -> fun _ -> -1
        | Ret_int r ->
          fun fm ->
            fm.rv <- R_int fm.ir.(r);
            -1
        | Ret_float r ->
          fun fm ->
            fm.rv <- R_float fm.fr.(r);
            -1)
      | Halt -> fun _ -> -1
      | _ -> assert false
    in
    let blocks =
      Array.mapi
        (fun b start ->
          let stop = if b + 1 < n_blocks then starts.(b + 1) else len in
          let last = stop - 1 in
          let ends_in_term = is_terminator code.(last) in
          let n_ops = if ends_in_term then last - start else stop - start in
          let ops =
            Array.init n_ops (fun i -> compile_op (start + i) code.(start + i))
          in
          let term =
            if ends_in_term then compile_term last code.(last)
            else begin
              (* a block cut by a leader falls through for free *)
              let bn = resolve stop in
              if bn >= 0 then fun _ -> bn
              else fun _ -> trap stop "pc out of range"
            end
          in
          let kinds =
            let h = Array.make n_kinds 0 in
            for pcx = start to stop - 1 do
              let k = kind_index (kind code.(pcx)) in
              h.(k) <- h.(k) + 1
            done;
            let acc = ref [] in
            for k = n_kinds - 1 downto 0 do
              if h.(k) > 0 then acc := (k, h.(k)) :: !acc
            done;
            !acc
          in
          {
            b_start = start;
            b_len = stop - start;
            b_ops = ops;
            b_term = term;
            b_kinds = kinds;
          })
        starts
    in
    {
      c_fname = fname;
      c_niregs = f.n_iregs;
      c_nfregs = f.n_fregs;
      c_blocks = blocks;
      c_exec = Array.make n_blocks 0;
    }
  in
  let cfuncs = Array.map compile p.funcs in
  let exec_fn fid av bv : ret_value =
    let cf = cfuncs.(fid) in
    let fm =
      { ir = Array.make cf.c_niregs 0; fr = Array.make cf.c_nfregs 0.0;
        rv = R_none }
    in
    Array.blit av 0 fm.ir 0 (Array.length av);
    Array.blit bv 0 fm.fr 0 (Array.length bv);
    let blocks = cf.c_blocks in
    if Array.length blocks = 0 then trap p.pname cf.c_fname 0 "pc out of range";
    let ex = cf.c_exec in
    let bid = ref 0 in
    while !bid >= 0 do
      let b = Array.unsafe_get blocks !bid in
      let f0 = !fuel in
      if f0 < b.b_len then begin
        (* out of fuel inside this block: replay the instructions the
           remaining fuel pays for (any of their traps fire first, as in
           the interpreter), then trap where the interpreter would *)
        let ops = b.b_ops in
        let n = Int.min f0 (Array.length ops) in
        for i = 0 to n - 1 do
          (Array.unsafe_get ops i) fm
        done;
        trap p.pname cf.c_fname (b.b_start + f0) "out of fuel"
      end
      else begin
        fuel := f0 - b.b_len;
        executed := !executed + b.b_len;
        ex.(!bid) <- ex.(!bid) + 1;
        let ops = b.b_ops in
        for i = 0 to Array.length ops - 1 do
          (Array.unsafe_get ops i) fm
        done;
        bid := b.b_term fm
      end
    done;
    fm.rv
  in
  exec_ref := exec_fn;
  let rv = exec_fn p.entry (Array.of_list iargs) (Array.of_list fargs) in
  let kind_counts = Array.make n_kinds 0 in
  Array.iter
    (fun cf ->
      Array.iteri
        (fun b n ->
          if n > 0 then
            List.iter
              (fun (k, c) -> kind_counts.(k) <- kind_counts.(k) + (n * c))
              cf.c_blocks.(b).b_kinds)
        cf.c_exec)
    cfuncs;
  {
    kind_counts;
    total = Array.fold_left ( + ) 0 kind_counts;
    site_encountered;
    site_taken;
    rets_from_direct = !rets_from_direct;
    rets_from_indirect = !rets_from_indirect;
    outputs = List.rev !outputs;
    return_value = (match rv with R_int v -> Some v | R_none | R_float _ -> None);
    dumped = dump p mem config.dump_arrays;
    gap_histogram = gaps.Gaps.hist;
    gap_count = gaps.Gaps.count;
    gap_sum = gaps.Gaps.sum;
  }
