(* The closure-threaded execution engine.

   [run] compiles every function once per run into continuation-chained
   closures.  Each op does its work, then tail-calls the next op's
   closure; each block's terminator charges its successor's fuel and
   execution count inline, then tail-calls the successor's chain.  An
   activation of a simulated function is thus one chain of OCaml tail
   calls that returns only at [Ret] or [Halt], and a simulated call is
   one OCaml call: the stack grows with the simulated call depth, never
   with the number of blocks executed.  Operands, array cells, trap
   messages and hook variants are resolved at compile time, so the hot
   path has no dispatch match, no driver loop and no hook test.

   - Fused tails: a block ending in [Icmp (c, d, a, b); Br d], or in
     [Iconst (b, v); Icmp (c, d, a, b); Br d], compiles to one
     terminator closure that still writes [b] and [d].  A block fuses
     only when both branch targets resolve and no branch hook is set.
   - Unchecked registers: [in_range] proves once per run that every
     register operand fits its function's register files, every site is
     below [n_sites] and no direct call passes more arguments than its
     callee takes, so register, counter and argument accesses skip
     their bounds checks.  [Vm.run] sends a program that fails the check
     to the reference interpreter.  Memory-array indices are data, so
     their checks stay.
   - Calls allocate nothing: each function keeps a stack of frames,
     reused on return and zero-filled on reuse.  Arguments are copied
     register to register, and results return through run-level slots.

   Bit-identical to the reference interpreter in [Vm] by construction:

   - fuel is charged per block on entry, which is exact at every
     observable point because the only places it can be observed (the
     out-of-fuel trap, break-gap recording at mispredicted branches and
     indirect calls) sit at block terminators — the charge for the block
     equals the interpreter's per-instruction total there.  [executed]
     is the fuel spent.  Entering a block the remaining fuel cannot pay
     for takes a slow path that replays exactly the instructions the
     fuel pays for (the same op closures, with a no-op continuation),
     then traps at the same pc with the same message;
   - kind counts are deferred: each block keeps a static kind histogram
     and a per-run execution counter, folded into [kind_counts] when the
     run completes (a trap abandons the result, so the deferral is
     unobservable);
   - branch-site counters, hooks, break gaps, outputs, call/return
     accounting, and every trap message fire in the interpreter's order. *)

open Fisher92_ir
open Insn
open Machine

(* Unchecked array access, for indices [in_range] has proved: register
   numbers, sites and argument lists. *)
external ( .%() ) : 'a array -> int -> 'a = "%array_unsafe_get"
external ( .%()<- ) : 'a array -> int -> 'a -> unit = "%array_unsafe_set"

type frame = { ir : int array; fr : float array }

type block = {
  b_func : Program.func;  (* for the out-of-fuel replay and its trap *)
  b_start : int;  (* pc of the first instruction *)
  b_len : int;  (* dynamic instructions charged per execution *)
  b_kinds : (int * int) list;  (* (kind index, static count) per block *)
  mutable b_count : int;  (* executions, this run *)
  mutable b_run : frame -> unit;  (* the block's ops, then its terminator *)
}

type cfunc = {
  c_func : Program.func;
  c_blocks : block array;
  mutable c_frames : frame array;  (* [c_frames.(i)] serves depth [i] *)
  mutable c_made : int;  (* frames allocated so far *)
  mutable c_depth : int;  (* live activations *)
}

type ret_kind = No_value | Int_value | Float_value

(* Run-level state every compiled closure shares. *)
type state = {
  mutable fuel : int;
  encountered : int array;  (* per site *)
  taken : int array;  (* per site *)
  mutable ret_kind : ret_kind;  (* what the last [Ret] returned *)
  mutable ret_int : int;
  ret_float : float array;  (* one cell, so a float result stays unboxed *)
  mutable starve : block -> frame -> unit;  (* out of fuel at block entry *)
}

let is_terminator = function
  | Br _ | Jump _ | Call _ | Callind _ | Ret _ | Halt -> true
  | _ -> false

let in_range (p : Program.t) =
  let n_funcs = Array.length p.funcs and n_sites = Program.n_sites p in
  let n_arrays = Array.length p.arrays in
  let below n i = 0 <= i && i < n and fits n k = 0 <= k && k <= n in
  let fits_call callee iargs fargs =
    below n_funcs callee
    && List.compare_length_with iargs p.funcs.(callee).n_iparams <= 0
    && List.compare_length_with fargs p.funcs.(callee).n_fparams <= 0
  in
  let func_ok (f : Program.func) =
    let ir = below f.n_iregs and fr = below f.n_fregs in
    let arr = below n_arrays in
    let args iargs fargs = List.for_all ir iargs && List.for_all fr fargs in
    let dest = function
      | No_dest -> true
      | Int_dest r -> ir r
      | Float_dest r -> fr r
    in
    let insn_ok = function
      | Iconst (d, _) -> ir d
      | Fconst (d, _) -> fr d
      | Imov (d, s) | Inot (d, s) | Ineg (d, s) -> ir d && ir s
      | Fmov (d, s) | Funop (_, d, s) -> fr d && fr s
      | Ibin (_, d, a, b) | Icmp (_, d, a, b) -> ir d && ir a && ir b
      | Ibini (_, d, a, _) -> ir d && ir a
      | Fbin (_, d, a, b) -> fr d && fr a && fr b
      | Fcmp (_, d, a, b) -> ir d && fr a && fr b
      | Itof (d, s) -> fr d && ir s
      | Ftoi (d, s) -> ir d && fr s
      | Iload (d, a, i) -> ir d && arr a && ir i
      | Istore (a, i, s) -> arr a && ir i && ir s
      | Fload (d, a, i) -> fr d && arr a && ir i
      | Fstore (a, i, s) -> arr a && ir i && fr s
      | Select (d, c, a, b) -> ir d && ir c && ir a && ir b
      | Fselect (d, c, a, b) -> fr d && ir c && fr a && fr b
      | Br { cond; site; _ } -> ir cond && below n_sites site
      | Jump _ | Ret Ret_none | Halt -> true
      | Ret (Ret_int r) | Output r -> ir r
      | Ret (Ret_float r) | Foutput r -> fr r
      | Call { callee; iargs; fargs; dst } ->
        args iargs fargs && dest dst && fits_call callee iargs fargs
      | Callind { table; iargs; fargs; dst } ->
        ir table && args iargs fargs && dest dst
    in
    (* arguments land in the callee's first registers *)
    let params = fits f.n_iregs f.n_iparams && fits f.n_fregs f.n_fparams in
    params && Array.for_all insn_ok f.code
  in
  Array.for_all func_ok p.funcs

(* Charge block [b]'s fuel and execution count, then run its chain. *)
let[@inline] enter st b fm =
  let f = st.fuel - b.b_len in
  if f < 0 then st.starve b fm
  else begin
    st.fuel <- f;
    b.b_count <- b.b_count + 1;
    b.b_run fm
  end

(* Count one execution of branch [site], then enter its successor. *)
let[@inline] branch st site ~taken bt bf fm =
  st.encountered.%(site) <- st.encountered.%(site) + 1;
  if taken then begin
    st.taken.%(site) <- st.taken.%(site) + 1;
    enter st bt fm
  end
  else enter st bf fm

let[@inline] iset fm d v =
  fm.ir.%(d) <- v;
  fm

(* [iset] of a comparison's 0/1 result *)
let[@inline] bset fm d t = iset fm d (Bool.to_int t)

let[@inline] fset fm d (x : float) =
  fm.fr.%(d) <- x;
  fm

(* A frame for a new activation of [cf]: reused when one is free at this
   depth (the caller zero-fills it), freshly allocated otherwise. *)
let push cf =
  let depth = cf.c_depth in
  cf.c_depth <- depth + 1;
  if depth < cf.c_made then cf.c_frames.%(depth)
  else begin
    let f = cf.c_func in
    let fm = { ir = Array.make f.n_iregs 0; fr = Array.make f.n_fregs 0.0 } in
    if depth = Array.length cf.c_frames then begin
      let frames = Array.make ((2 * depth) + 1) fm in
      Array.blit cf.c_frames 0 frames 0 depth;
      cf.c_frames <- frames
    end;
    cf.c_frames.(depth) <- fm;
    cf.c_made <- depth + 1;
    fm
  end

(* Copy the argument registers [ia]/[fa] of the caller's frame [fm] into
   the callee's first registers, zeroing the rest. *)
let pass ia fa fm cfm =
  let n = Array.length ia and ir = cfm.ir in
  for i = 0 to n - 1 do
    ir.%(i) <- fm.ir.%(ia.%(i))
  done;
  for i = n to Array.length ir - 1 do
    ir.%(i) <- 0
  done;
  let n = Array.length fa and fr = cfm.fr in
  for i = 0 to n - 1 do
    fr.%(i) <- fm.fr.%(fa.%(i))
  done;
  for i = n to Array.length fr - 1 do
    fr.%(i) <- 0.0
  done

let run ~(config : config) ~(mem : mem_cell array) (p : Program.t) ~iargs
    ~fargs =
  let n_sites = Program.n_sites p in
  let rets_from_direct = ref 0 in
  let rets_from_indirect = ref 0 in
  let outputs = ref [] in
  let n_outputs = ref 0 in
  let fuel0 = match config.fuel with Some f -> f | None -> max_int in
  let st =
    {
      fuel = fuel0;
      encountered = Array.make n_sites 0;
      taken = Array.make n_sites 0;
      ret_kind = No_value;
      ret_int = 0;
      ret_float = [| 0.0 |];
      starve = (fun _ _ -> ());
    }
  in
  (* the fuel spent, [fuel0 - st.fuel]: set only where a gap hook reads it *)
  let executed = ref 0 in
  let gaps = Gaps.create () in
  let note = branch_note ~config ~gaps ~executed in
  let gap_calls = config.predicted <> None in
  let cfuncs =
    Array.map
      (fun (f : Program.func) ->
        let code = f.code in
        let len = Array.length code in
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
        let block b start =
          let stop = if b + 1 < n_blocks then starts.(b + 1) else len in
          let h = Array.make n_kinds 0 in
          for pc = start to stop - 1 do
            let k = kind_index (kind code.(pc)) in
            h.(k) <- h.(k) + 1
          done;
          let kinds = ref [] in
          for k = n_kinds - 1 downto 0 do
            if h.(k) > 0 then kinds := (k, h.(k)) :: !kinds
          done;
          {
            b_func = f;
            b_start = start;
            b_len = stop - start;
            b_kinds = !kinds;
            b_count = 0;
            b_run = ignore;
          }
        in
        {
          c_func = f;
          c_blocks = Array.mapi block starts;
          c_frames = [||];
          c_made = 0;
          c_depth = 0;
        })
      p.funcs
  in
  let emit fname pc out =
    incr n_outputs;
    if !n_outputs > config.max_outputs then
      trap p.pname fname pc "output overflow"
    else outputs := out :: !outputs
  in
  let compile_op fname pc insn (next : frame -> unit) : frame -> unit =
    let trap pc fmt = trap p.pname fname pc fmt in
    match insn with
    | Iconst (d, k) -> fun fm -> next (iset fm d k)
    | Fconst (d, x) -> fun fm -> next (fset fm d x)
    | Imov (d, s) -> fun fm -> next (iset fm d fm.ir.%(s))
    | Fmov (d, s) -> fun fm -> next (fset fm d fm.fr.%(s))
    | Ibin (op, d, a, b) -> (
      match op with
      | Add -> fun fm -> next (iset fm d (fm.ir.%(a) + fm.ir.%(b)))
      | Sub -> fun fm -> next (iset fm d (fm.ir.%(a) - fm.ir.%(b)))
      | Mul -> fun fm -> next (iset fm d (fm.ir.%(a) * fm.ir.%(b)))
      | Div ->
        fun fm ->
          let y = fm.ir.%(b) in
          if y = 0 then trap pc "division by zero"
          else next (iset fm d (fm.ir.%(a) / y))
      | Rem ->
        fun fm ->
          let y = fm.ir.%(b) in
          if y = 0 then trap pc "remainder by zero"
          else next (iset fm d (fm.ir.%(a) mod y))
      | And -> fun fm -> next (iset fm d (fm.ir.%(a) land fm.ir.%(b)))
      | Or -> fun fm -> next (iset fm d (fm.ir.%(a) lor fm.ir.%(b)))
      | Xor -> fun fm -> next (iset fm d (fm.ir.%(a) lxor fm.ir.%(b)))
      | Shl -> fun fm -> next (iset fm d (fm.ir.%(a) lsl (fm.ir.%(b) land 63)))
      | Shr -> fun fm -> next (iset fm d (fm.ir.%(a) asr (fm.ir.%(b) land 63)))
      | Min -> fun fm -> next (iset fm d (Int.min fm.ir.%(a) fm.ir.%(b)))
      | Max -> fun fm -> next (iset fm d (Int.max fm.ir.%(a) fm.ir.%(b))))
    | Ibini (op, d, a, k) -> (
      match op with
      | Add -> fun fm -> next (iset fm d (fm.ir.%(a) + k))
      | Sub -> fun fm -> next (iset fm d (fm.ir.%(a) - k))
      | Mul -> fun fm -> next (iset fm d (fm.ir.%(a) * k))
      | Div ->
        if k = 0 then fun _ -> trap pc "division by zero"
        else fun fm -> next (iset fm d (fm.ir.%(a) / k))
      | Rem ->
        if k = 0 then fun _ -> trap pc "remainder by zero"
        else fun fm -> next (iset fm d (fm.ir.%(a) mod k))
      | And -> fun fm -> next (iset fm d (fm.ir.%(a) land k))
      | Or -> fun fm -> next (iset fm d (fm.ir.%(a) lor k))
      | Xor -> fun fm -> next (iset fm d (fm.ir.%(a) lxor k))
      | Shl ->
        let k = k land 63 in
        fun fm -> next (iset fm d (fm.ir.%(a) lsl k))
      | Shr ->
        let k = k land 63 in
        fun fm -> next (iset fm d (fm.ir.%(a) asr k))
      | Min -> fun fm -> next (iset fm d (Int.min fm.ir.%(a) k))
      | Max -> fun fm -> next (iset fm d (Int.max fm.ir.%(a) k)))
    | Inot (d, s) -> fun fm -> next (bset fm d (fm.ir.%(s) = 0))
    | Ineg (d, s) -> fun fm -> next (iset fm d (-fm.ir.%(s)))
    | Fbin (op, d, a, b) -> (
      match op with
      | Fadd -> fun fm -> next (fset fm d (fm.fr.%(a) +. fm.fr.%(b)))
      | Fsub -> fun fm -> next (fset fm d (fm.fr.%(a) -. fm.fr.%(b)))
      | Fmul -> fun fm -> next (fset fm d (fm.fr.%(a) *. fm.fr.%(b)))
      | Fdiv -> fun fm -> next (fset fm d (fm.fr.%(a) /. fm.fr.%(b)))
      | Fmin -> fun fm -> next (fset fm d (Float.min fm.fr.%(a) fm.fr.%(b)))
      | Fmax -> fun fm -> next (fset fm d (Float.max fm.fr.%(a) fm.fr.%(b))))
    | Funop (op, d, s) -> (
      match op with
      | Fneg -> fun fm -> next (fset fm d (-.fm.fr.%(s)))
      | Fabs -> fun fm -> next (fset fm d (Float.abs fm.fr.%(s)))
      | Fsqrt -> fun fm -> next (fset fm d (sqrt fm.fr.%(s)))
      | Fexp -> fun fm -> next (fset fm d (exp fm.fr.%(s)))
      | Flog -> fun fm -> next (fset fm d (log fm.fr.%(s)))
      | Fsin -> fun fm -> next (fset fm d (sin fm.fr.%(s)))
      | Fcos -> fun fm -> next (fset fm d (cos fm.fr.%(s))))
    | Icmp (c, d, a, b) -> (
      match c with
      | Eq -> fun fm -> next (bset fm d (fm.ir.%(a) = fm.ir.%(b)))
      | Ne -> fun fm -> next (bset fm d (fm.ir.%(a) <> fm.ir.%(b)))
      | Lt -> fun fm -> next (bset fm d (fm.ir.%(a) < fm.ir.%(b)))
      | Le -> fun fm -> next (bset fm d (fm.ir.%(a) <= fm.ir.%(b)))
      | Gt -> fun fm -> next (bset fm d (fm.ir.%(a) > fm.ir.%(b)))
      | Ge -> fun fm -> next (bset fm d (fm.ir.%(a) >= fm.ir.%(b))))
    | Fcmp (c, d, a, b) -> (
      match c with
      | Eq -> fun fm -> next (bset fm d (fm.fr.%(a) = fm.fr.%(b)))
      | Ne -> fun fm -> next (bset fm d (fm.fr.%(a) <> fm.fr.%(b)))
      | Lt -> fun fm -> next (bset fm d (fm.fr.%(a) < fm.fr.%(b)))
      | Le -> fun fm -> next (bset fm d (fm.fr.%(a) <= fm.fr.%(b)))
      | Gt -> fun fm -> next (bset fm d (fm.fr.%(a) > fm.fr.%(b)))
      | Ge -> fun fm -> next (bset fm d (fm.fr.%(a) >= fm.fr.%(b))))
    | Itof (d, s) -> fun fm -> next (fset fm d (float_of_int fm.ir.%(s)))
    | Ftoi (d, s) -> fun fm -> next (iset fm d (int_of_float fm.fr.%(s)))
    | Iload (d, a, i) -> (
      match mem.(a) with
      | Mi cells ->
        let alen = Array.length cells and aname = p.arrays.(a).aname in
        fun fm ->
          let idx = fm.ir.%(i) in
          if idx < 0 || idx >= alen then
            trap pc "index %d out of bounds for %s[%d]" idx aname alen
          else next (iset fm d (Array.unsafe_get cells idx))
      | Mf _ -> fun _ -> trap pc "int access to float array")
    | Istore (a, i, s) -> (
      match mem.(a) with
      | Mi cells ->
        let alen = Array.length cells and aname = p.arrays.(a).aname in
        fun fm ->
          let idx = fm.ir.%(i) in
          if idx < 0 || idx >= alen then
            trap pc "index %d out of bounds for %s[%d]" idx aname alen
          else begin
            Array.unsafe_set cells idx fm.ir.%(s);
            next fm
          end
      | Mf _ -> fun _ -> trap pc "int access to float array")
    | Fload (d, a, i) -> (
      match mem.(a) with
      | Mf cells ->
        let alen = Array.length cells and aname = p.arrays.(a).aname in
        fun fm ->
          let idx = fm.ir.%(i) in
          if idx < 0 || idx >= alen then
            trap pc "index %d out of bounds for %s[%d]" idx aname alen
          else next (fset fm d (Array.unsafe_get cells idx))
      | Mi _ -> fun _ -> trap pc "float access to int array")
    | Fstore (a, i, s) -> (
      match mem.(a) with
      | Mf cells ->
        let alen = Array.length cells and aname = p.arrays.(a).aname in
        fun fm ->
          let idx = fm.ir.%(i) in
          if idx < 0 || idx >= alen then
            trap pc "index %d out of bounds for %s[%d]" idx aname alen
          else begin
            Array.unsafe_set cells idx fm.fr.%(s);
            next fm
          end
      | Mi _ -> fun _ -> trap pc "float access to int array")
    | Select (d, c, a, b) ->
      fun fm ->
        next (iset fm d (if fm.ir.%(c) <> 0 then fm.ir.%(a) else fm.ir.%(b)))
    | Fselect (d, c, a, b) ->
      fun fm ->
        next (fset fm d (if fm.ir.%(c) <> 0 then fm.fr.%(a) else fm.fr.%(b)))
    | Output r ->
      fun fm ->
        emit fname pc (Out_int fm.ir.%(r));
        next fm
    | Foutput r ->
      fun fm ->
        emit fname pc (Out_float fm.fr.%(r));
        next fm
    | Br _ | Jump _ | Call _ | Callind _ | Ret _ | Halt ->
      assert false (* terminators never appear in a block body *)
  in
  st.starve <-
    (fun b fm ->
      (* out of fuel inside [b]: replay the instructions the remaining
         fuel pays for (any of their traps fire first, as in the
         interpreter), then trap where the interpreter would.  Fuel is
         negative only when the run started so. *)
      let f = b.b_func and paid = Int.max 0 st.fuel in
      for pc = b.b_start to b.b_start + paid - 1 do
        compile_op f.fname pc f.code.(pc) ignore fm
      done;
      trap p.pname f.fname (b.b_start + paid) "out of fuel");
  (* Run [cf] on a new activation whose arguments are the registers
     [ia]/[fa] of [fm]; the result lands in [st]'s return slots. *)
  let invoke cf ia fa fm =
    let cfm = push cf in
    pass ia fa fm cfm;
    if Array.length cf.c_blocks = 0 then
      trap p.pname cf.c_func.fname 0 "pc out of range";
    enter st cf.c_blocks.%(0) cfm;
    cf.c_depth <- cf.c_depth - 1
  in
  (* [Icmp (c, d, a, r); Br d], or [Iconst (r, v); Icmp (c, d, a, r); Br d]
     when [konst = Some v], as one closure that still writes [r] and [d] *)
  let fused ~site ~bt ~bf c d a r konst : frame -> unit =
    let[@inline] go fm t = branch st site ~taken:t bt bf (bset fm d t) in
    match konst with
    | None -> (
      match c with
      | Eq -> fun fm -> go fm (fm.ir.%(a) = fm.ir.%(r))
      | Ne -> fun fm -> go fm (fm.ir.%(a) <> fm.ir.%(r))
      | Lt -> fun fm -> go fm (fm.ir.%(a) < fm.ir.%(r))
      | Le -> fun fm -> go fm (fm.ir.%(a) <= fm.ir.%(r))
      | Gt -> fun fm -> go fm (fm.ir.%(a) > fm.ir.%(r))
      | Ge -> fun fm -> go fm (fm.ir.%(a) >= fm.ir.%(r)))
    | Some v -> (
      (* [a] may be [r]: read it after the constant lands *)
      match c with
      | Eq -> fun fm -> go fm ((iset fm r v).ir.%(a) = v)
      | Ne -> fun fm -> go fm ((iset fm r v).ir.%(a) <> v)
      | Lt -> fun fm -> go fm ((iset fm r v).ir.%(a) < v)
      | Le -> fun fm -> go fm ((iset fm r v).ir.%(a) <= v)
      | Gt -> fun fm -> go fm ((iset fm r v).ir.%(a) > v)
      | Ge -> fun fm -> go fm ((iset fm r v).ir.%(a) >= v))
  in
  (* The closure that ends block [b], paired with the pc it starts at: the
     terminator, fused with the compare (and constant) before it where it
     can be, or a fall-through into the next block.  [resolve pc'] is the
     block a transfer to [pc'] lands in, [None] when it must trap "pc out
     of range" at run time. *)
  let compile_tail resolve (b : block) =
    let code = b.b_func.code and fname = b.b_func.fname in
    let trap pc fmt = trap p.pname fname pc fmt in
    let goto pc' =
      match resolve pc' with
      | Some b -> fun fm -> enter st b fm
      | None -> fun _ -> trap pc' "pc out of range"
    in
    (* continue in [ob], the block [resolve pc'] found, or trap *)
    let resume ob pc' fm =
      match ob with
      | Some b -> enter st b fm
      | None -> trap pc' "pc out of range"
    in
    (* store what the call at [pc] to [g] returned into [dst] *)
    let store_result pc (g : Program.func) dst fm =
      match (dst, st.ret_kind) with
      | No_dest, _ -> ()
      | Int_dest d, Int_value -> fm.ir.%(d) <- st.ret_int
      | Float_dest d, Float_value -> fm.fr.%(d) <- st.ret_float.%(0)
      | Int_dest _, (No_value | Float_value) ->
        trap pc "call to %s: expected an integer result" g.fname
      | Float_dest _, (No_value | Int_value) ->
        trap pc "call to %s: expected a float result" g.fname
    in
    let stop = b.b_start + b.b_len in
    let last = stop - 1 in
    let before pc' = if pc' >= b.b_start then Some code.(pc') else None in
    match code.(last) with
    | insn when not (is_terminator insn) -> (stop, goto stop)
    | Br { cond; target; site } -> (
      match (note, resolve target, resolve (last + 1)) with
      | None, Some bt, Some bf -> (
        match before (last - 1) with
        | Some (Icmp (c, d, a, r)) when d = cond -> (
          match before (last - 2) with
          | Some (Iconst (k, v)) when k = r ->
            (last - 2, fused ~site ~bt ~bf c d a r (Some v))
          | _ -> (last - 1, fused ~site ~bt ~bf c d a r None))
        | _ ->
          ( last,
            fun fm -> branch st site ~taken:(fm.ir.%(cond) <> 0) bt bf fm ))
      | Some nt, Some bt, Some bf ->
        ( last,
          fun fm ->
            let taken = fm.ir.%(cond) <> 0 in
            executed := fuel0 - st.fuel;
            nt site taken;
            branch st site ~taken bt bf fm )
      | _, bt, bf ->
        (* a target outside the code traps when control reaches it *)
        ( last,
          fun fm ->
            let taken = fm.ir.%(cond) <> 0 in
            st.encountered.%(site) <- st.encountered.%(site) + 1;
            if taken then st.taken.%(site) <- st.taken.%(site) + 1;
            (match note with
            | None -> ()
            | Some nt ->
              executed := fuel0 - st.fuel;
              nt site taken);
            if taken then resume bt target fm else resume bf (last + 1) fm ))
    | Jump target -> (last, goto target)
    | Call { callee; iargs; fargs; dst } ->
      let g = cfuncs.(callee) and after = resolve (last + 1) in
      let ia = Array.of_list iargs and fa = Array.of_list fargs in
      ( last,
        fun fm ->
          invoke g ia fa fm;
          incr rets_from_direct;
          store_result last g.c_func dst fm;
          resume after (last + 1) fm )
    | Callind { table; iargs; fargs; dst } ->
      let after = resolve (last + 1) in
      let ia = Array.of_list iargs and fa = Array.of_list fargs in
      ( last,
        fun fm ->
          let slot = fm.ir.%(table) in
          if slot < 0 || slot >= Array.length p.func_table then
            trap last "indirect call through bad slot %d" slot
          else begin
            let g = cfuncs.(p.func_table.(slot)) in
            (* the interpreter's argument arrays have the callee's
               parameter counts, so one argument more overflows them *)
            if
              Array.length ia > g.c_func.n_iparams
              || Array.length fa > g.c_func.n_fparams
            then invalid_arg "index out of bounds";
            if gap_calls then Gaps.break gaps ~executed:(fuel0 - st.fuel);
            invoke g ia fa fm;
            incr rets_from_indirect;
            if gap_calls then Gaps.break gaps ~executed:(fuel0 - st.fuel);
            store_result last g.c_func dst fm;
            resume after (last + 1) fm
          end )
    | Ret Ret_none | Halt -> (last, fun _ -> st.ret_kind <- No_value)
    | Ret (Ret_int r) ->
      ( last,
        fun fm ->
          st.ret_int <- fm.ir.%(r);
          st.ret_kind <- Int_value )
    | Ret (Ret_float r) ->
      ( last,
        fun fm ->
          st.ret_float.%(0) <- fm.fr.%(r);
          st.ret_kind <- Float_value )
    | _ -> assert false
  in
  Array.iter
    (fun cf ->
      let f = cf.c_func in
      let len = Array.length f.code in
      let at = Array.make (Int.max 1 len) None in
      Array.iter (fun b -> at.(b.b_start) <- Some b) cf.c_blocks;
      let resolve pc' = if pc' >= 0 && pc' < len then at.(pc') else None in
      Array.iter
        (fun b ->
          let first, tail = compile_tail resolve b in
          let chain = ref tail in
          for pc = first - 1 downto b.b_start do
            chain := compile_op f.fname pc f.code.(pc) !chain
          done;
          b.b_run <- !chain)
        cf.c_blocks)
    cfuncs;
  (* the entry's arguments pass like a call's, from a frame holding them *)
  invoke cfuncs.(p.entry)
    (Array.init (List.length iargs) Fun.id)
    (Array.init (List.length fargs) Fun.id)
    { ir = Array.of_list iargs; fr = Array.of_list fargs };
  let kind_counts = Array.make n_kinds 0 in
  Array.iter
    (fun cf ->
      Array.iter
        (fun b ->
          let n = b.b_count in
          if n > 0 then
            List.iter
              (fun (k, c) -> kind_counts.(k) <- kind_counts.(k) + (n * c))
              b.b_kinds)
        cf.c_blocks)
    cfuncs;
  {
    kind_counts;
    total = Array.fold_left ( + ) 0 kind_counts;
    site_encountered = st.encountered;
    site_taken = st.taken;
    rets_from_direct = !rets_from_direct;
    rets_from_indirect = !rets_from_indirect;
    outputs = List.rev !outputs;
    return_value =
      (match st.ret_kind with
      | Int_value -> Some st.ret_int
      | No_value | Float_value -> None);
    dumped = dump p mem config.dump_arrays;
    gap_histogram = gaps.Gaps.hist;
    gap_count = gaps.Gaps.count;
    gap_sum = gaps.Gaps.sum;
  }
