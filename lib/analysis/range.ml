module P = Fisher92_ir.Program
module I = Fisher92_ir.Insn

type interval = { lo : int; hi : int }

let ninf = min_int
let pinf = max_int
let top = { lo = ninf; hi = pinf }
let const k = { lo = k; hi = k }
let is_const i = if i.lo = i.hi && i.lo <> ninf && i.lo <> pinf then Some i.lo else None
let mem v i = i.lo <= v && v <= i.hi
let join a b = { lo = Int.min a.lo b.lo; hi = Int.max a.hi b.hi }

let inter a b =
  let lo = Int.max a.lo b.lo and hi = Int.min a.hi b.hi in
  if lo <= hi then Some { lo; hi } else None

let to_string i =
  let b v = if v = ninf then "-inf" else if v = pinf then "+inf" else string_of_int v in
  if i.lo = i.hi then Printf.sprintf "[%s]" (b i.lo)
  else Printf.sprintf "[%s, %s]" (b i.lo) (b i.hi)

let negate_cmp = function
  | I.Eq -> I.Ne
  | I.Ne -> I.Eq
  | I.Lt -> I.Ge
  | I.Le -> I.Gt
  | I.Gt -> I.Le
  | I.Ge -> I.Lt

(* ---- flat environments ----

   The fixpoint holds an environment as one int array: register [r]'s
   interval has [lo] at [2r] and [hi] at [2r+1].  Transfers, joins and
   edge refinements rewrite bounds in place, so the fixpoint allocates
   one entry environment per reached block and nothing per visit;
   [env_at] and [edge_env] box on request. *)

let set e d lo hi =
  e.(2 * d) <- lo;
  e.((2 * d) + 1) <- hi

let lo e r = e.(2 * r)
let hi e r = e.((2 * r) + 1)
let set_top e d = set e d ninf pinf

(* Sentinel-free point interval: the [is_const] test on bounds. *)
let const_at e r =
  let l = lo e r in
  l = hi e r && l <> ninf && l <> pinf

let box e =
  Array.init (Array.length e / 2) (fun r -> { lo = lo e r; hi = hi e r })

(* ---- arithmetic ----

   The VM wraps silently on native-int overflow, so a clamped bound
   would be unsound: whenever an endpoint computation overflows, or an
   operand is unbounded (its actual value may sit at the native
   extreme where the next operation wraps), the result is top.  Each
   operation reads its operands' bounds before writing [d], which may
   be one of them. *)

let add_wraps a b s = (a >= 0) = (b >= 0) && (s >= 0) <> (a >= 0)

let set_add e d alo ahi blo bhi =
  if alo = ninf || ahi = pinf || blo = ninf || bhi = pinf then set_top e d
  else
    let l = alo + blo and h = ahi + bhi in
    if add_wraps alo blo l || add_wraps ahi bhi h then set_top e d
    else if l = ninf || l = pinf || h = ninf || h = pinf then set_top e d
    else set e d l h

(* Negation wraps only on min_int itself, which an unbounded-below
   interval may contain. *)
let set_neg e d alo ahi =
  if alo = ninf then set_top e d
  else set e d (if ahi = pinf then ninf else -ahi) (-alo)

let set_sub e d alo ahi blo bhi =
  if blo = ninf then set_top e d
  else set_add e d alo ahi (if bhi = pinf then ninf else -bhi) (-blo)

(* [a * b] neither wraps nor lands on a sentinel. *)
let mul_fits a b =
  a = 0 || b = 0
  ||
  let p = a * b in
  p / a = b && p <> ninf && p <> pinf

let set_mul e d alo ahi blo bhi =
  if (alo = 0 && ahi = 0) || (blo = 0 && bhi = 0) then set e d 0 0
  else if alo = ninf || ahi = pinf || blo = ninf || bhi = pinf then set_top e d
  else if
    mul_fits alo blo && mul_fits alo bhi && mul_fits ahi blo
    && mul_fits ahi bhi
  then
    let p1 = alo * blo and p2 = alo * bhi in
    let p3 = ahi * blo and p4 = ahi * bhi in
    set e d
      (Int.min (Int.min p1 p2) (Int.min p3 p4))
      (Int.max (Int.max p1 p2) (Int.max p3 p4))
  else set_top e d

(* min/max never overflow; the sentinels are extremal, so plain integer
   min/max on the bounds is exact. *)
let set_ibin op e d alo ahi blo bhi =
  match op with
  | I.Add -> set_add e d alo ahi blo bhi
  | I.Sub -> set_sub e d alo ahi blo bhi
  | I.Mul -> set_mul e d alo ahi blo bhi
  | I.Min -> set e d (Int.min alo blo) (Int.min ahi bhi)
  | I.Max -> set e d (Int.max alo blo) (Int.max ahi bhi)
  | I.Div | I.Rem | I.And | I.Or | I.Xor | I.Shl | I.Shr -> set_top e d

(* Comparison outcomes never wrap, and the sentinel reading "the actual
   value may sit at the native extreme" keeps these decisions sound. *)
let cmp_always c alo ahi blo bhi =
  match c with
  | I.Eq -> alo = ahi && blo = bhi && alo = blo && alo <> ninf && alo <> pinf
  | I.Ne -> Int.max alo blo > Int.min ahi bhi
  | I.Lt -> ahi < blo
  | I.Le -> ahi <= blo
  | I.Gt -> bhi < alo
  | I.Ge -> bhi <= alo

let set_icmp c e d alo ahi blo bhi =
  if cmp_always c alo ahi blo bhi then set e d 1 1
  else if cmp_always (negate_cmp c) alo ahi blo bhi then set e d 0 0
  else set e d 0 1

(* ---- transfer ----

   The environment covers the integer register file only; floats feed
   back in solely through compares ([0,1]) and truncation (top). *)

let transfer e insn =
  match insn with
  | I.Iconst (d, k) -> set e d k k
  | I.Imov (d, s) -> set e d (lo e s) (hi e s)
  | I.Ibin (op, d, a, b) -> set_ibin op e d (lo e a) (hi e a) (lo e b) (hi e b)
  | I.Ibini (op, d, a, k) -> set_ibin op e d (lo e a) (hi e a) k k
  | I.Inot (d, s) ->
    let l = lo e s and h = hi e s in
    if l = 0 && h = 0 then set e d 1 1
    else if l > 0 || h < 0 then set e d 0 0
    else set e d 0 1
  | I.Ineg (d, s) -> set_neg e d (lo e s) (hi e s)
  | I.Icmp (c, d, a, b) -> set_icmp c e d (lo e a) (hi e a) (lo e b) (hi e b)
  | I.Fcmp (_, d, _, _) -> set e d 0 1
  | I.Ftoi (d, _) | I.Iload (d, _, _) -> set_top e d
  | I.Select (d, c, a, b) ->
    let l = lo e c and h = hi e c in
    if l > 0 || h < 0 then set e d (lo e a) (hi e a)
    else if l = 0 && h = 0 then set e d (lo e b) (hi e b)
    else set e d (Int.min (lo e a) (lo e b)) (Int.max (hi e a) (hi e b))
  | I.Call { dst = I.Int_dest d; _ } | I.Callind { dst = I.Int_dest d; _ } ->
    set_top e d
  | I.Fconst _ | I.Fmov _ | I.Fbin _ | I.Funop _ | I.Itof _ | I.Fload _
  | I.Istore _ | I.Fstore _ | I.Fselect _
  | I.Call _ | I.Callind _
  | I.Br _ | I.Jump _ | I.Ret _ | I.Output _ | I.Foutput _ | I.Halt ->
    ()

(* ---- condition back-trace ---- *)

let defines_ireg r = function
  | I.Iconst (d, _) | I.Imov (d, _) | I.Inot (d, _) | I.Ineg (d, _)
  | I.Ibin (_, d, _, _) | I.Ibini (_, d, _, _)
  | I.Icmp (_, d, _, _) | I.Fcmp (_, d, _, _)
  | I.Ftoi (d, _) | I.Iload (d, _, _) | I.Select (d, _, _, _)
  | I.Call { dst = I.Int_dest d; _ } | I.Callind { dst = I.Int_dest d; _ } ->
    d = r
  | I.Fconst _ | I.Fmov _ | I.Funop _ | I.Fbin _ | I.Itof _ | I.Fload _
  | I.Fselect _ | I.Call _ | I.Callind _
  | I.Istore _ | I.Fstore _ | I.Br _ | I.Jump _ | I.Ret _ | I.Output _
  | I.Foutput _ | I.Halt ->
    false

let cond_cmp (f : P.func) (b : Cfg.block) =
  match f.code.(b.b_stop - 1) with
  | I.Br { cond; _ } ->
    let redefined r ~after ~before =
      let hit = ref false in
      for pc = after + 1 to before - 1 do
        if defines_ireg r f.code.(pc) then hit := true
      done;
      !hit
    in
    let rec walk pc r flip =
      if pc < b.b_start then None
      else
        match f.code.(pc) with
        | I.Imov (d, s) when d = r -> walk (pc - 1) s flip
        | I.Inot (d, s) when d = r -> walk (pc - 1) s (not flip)
        | I.Icmp (c, d, a, b2) when d = r ->
          if
            redefined a ~after:pc ~before:(b.b_stop - 1)
            || redefined b2 ~after:pc ~before:(b.b_stop - 1)
          then None
          else Some (c, a, b2, flip, pc)
        | insn when defines_ireg r insn -> None
        | _ -> walk (pc - 1) r flip
    in
    walk (b.b_stop - 2) cond false
  | _ -> None

(* ---- edge refinement ---- *)

exception Empty

let meet_into e r mlo mhi =
  let l = Int.max (lo e r) mlo and h = Int.min (hi e r) mhi in
  if l <= h then set e r l h else raise Empty

(* x < k: everything strictly below [k]; x > k: strictly above. *)
let meet_below e r k =
  if k = ninf then raise Empty else meet_into e r ninf (k - 1)

let meet_above e r k =
  if k = pinf then raise Empty else meet_into e r (k + 1) pinf

(* Drop the constant [v] from a bound of [r]; a point at [v] is empty. *)
let exclude e r v =
  let l = lo e r and h = hi e r in
  if const_at e r && l = v then raise Empty
  else
    let l' = if l = v then v + 1 else l and h' = if h = v then v - 1 else h in
    if l' <= h' then set e r l' h'

(* Refine [e] (a copy, taken at the branch) along one edge of
   [Br {cond; _}], given the block's [cond_cmp].  Raises [Empty] when
   the edge is infeasible. *)
let refine e cond cmp ~taken =
  (if taken then begin
     let l = lo e cond and h = hi e cond in
     if l = 0 && h = 0 then raise Empty;
     let l = if l = 0 then 1 else l and h = if h = 0 then -1 else h in
     if l <= h then set e cond l h else raise Empty
   end
   else meet_into e cond 0 0);
  match cmp with
  | None -> ()
  | Some (c, a, b2, flip, _) -> (
    let holds = if taken then not flip else flip in
    match if holds then c else negate_cmp c with
    | I.Eq ->
      let l = Int.max (lo e a) (lo e b2) and h = Int.min (hi e a) (hi e b2) in
      if l > h then raise Empty;
      set e a l h;
      set e b2 l h
    | I.Ne ->
      if const_at e b2 then exclude e a (lo e b2);
      if const_at e a then exclude e b2 (lo e a)
    | I.Lt ->
      if hi e b2 <> pinf then meet_below e a (hi e b2);
      if lo e a <> ninf then meet_above e b2 (lo e a)
    | I.Le ->
      if hi e b2 <> pinf then meet_into e a ninf (hi e b2);
      if lo e a <> ninf then meet_into e b2 (lo e a) pinf
    | I.Gt ->
      if lo e b2 <> ninf then meet_above e a (lo e b2);
      if hi e a <> pinf then meet_below e b2 (hi e a)
    | I.Ge ->
      if lo e b2 <> ninf then meet_into e a (lo e b2) pinf;
      if hi e a <> pinf then meet_into e b2 ninf (hi e a))

(* ---- fixpoint ---- *)

type t = {
  rt_func : P.func;
  rt_cfg : Cfg.t;
  rt_cmp : (I.cmp * int * int * bool * int) option array;
      (** per block: its [cond_cmp], traced once *)
  rt_reached : bool array;
  rt_in : int array array;  (** per reached block: final entry environment *)
}

let widen_after = 8
let hard_cap = 64

(* [src] within [dst] bound by bound: exactly when joining [src] into
   [dst] leaves [dst] unchanged. *)
let within (src : int array) dst =
  let n = Array.length src in
  let i = ref 0 in
  while !i < n && dst.(!i) <= src.(!i) && src.(!i + 1) <= dst.(!i + 1) do
    i := !i + 2
  done;
  !i >= n

(* Join [src] into [dst] in place; widening sends every bound that
   grows to its sentinel instead. *)
let join_into ~widen dst src =
  for r = 0 to (Array.length dst / 2) - 1 do
    let l = 2 * r and h = (2 * r) + 1 in
    if src.(l) < dst.(l) then dst.(l) <- (if widen then ninf else src.(l));
    if src.(h) > dst.(h) then dst.(h) <- (if widen then pinf else src.(h))
  done

(* The block's environment just before [stop]: its final entry
   environment pushed through [b_start, stop). *)
let run_to t (b : Cfg.block) ~stop =
  let e = Array.copy t.rt_in.(b.b_id) in
  for pc = b.b_start to stop - 1 do
    transfer e t.rt_func.code.(pc)
  done;
  e

let analyze (f : P.func) (cfg : Cfg.t) (_dom : Dom.t) (loops : Loops.t) =
  let n = Cfg.n_blocks cfg in
  let w = 2 * f.n_iregs in
  let rt_cmp = Array.map (cond_cmp f) cfg.Cfg.blocks in
  let rt_reached = Array.make n false in
  let rt_in = Array.make n [||] in
  let is_header = Array.make n false in
  Array.iter
    (fun (l : Loops.loop) -> is_header.(l.l_header) <- true)
    loops.Loops.loops;
  let updates = Array.make n 0 in
  (* FIFO of block ids; a block sits in it at most once *)
  let queue = Array.make n 0 and q_head = ref 0 and q_len = ref 0 in
  let in_queue = Array.make n false in
  let enqueue b =
    if not in_queue.(b) then begin
      in_queue.(b) <- true;
      queue.((!q_head + !q_len) mod n) <- b;
      incr q_len
    end
  in
  let entry_env = Array.make w 0 in
  for r = 0 to f.n_iregs - 1 do
    if Defuse.is_param f (Defuse.Ir r) then set_top entry_env r
  done;
  rt_in.(cfg.Cfg.entry) <- entry_env;
  rt_reached.(cfg.Cfg.entry) <- true;
  enqueue cfg.Cfg.entry;
  let feed dst src =
    if not rt_reached.(dst) then begin
      rt_in.(dst) <- Array.copy src;
      rt_reached.(dst) <- true;
      enqueue dst
    end
    else
      let cur = rt_in.(dst) in
      if not (within src cur) then begin
        updates.(dst) <- updates.(dst) + 1;
        join_into cur src
          ~widen:
            ((is_header.(dst) && updates.(dst) > widen_after)
            || updates.(dst) > hard_cap);
        enqueue dst
      end
  in
  (* scratch: the block's environment, and one edge's refinement of it *)
  let env = Array.make w 0 and edge = Array.make w 0 in
  let feed_env dst = feed dst env in
  let try_edge bid cond dst ~taken =
    Array.blit env 0 edge 0 w;
    match refine edge cond rt_cmp.(bid) ~taken with
    | () -> feed dst edge
    | exception Empty -> ()
  in
  while !q_len > 0 do
    let bid = queue.(!q_head) in
    q_head := (!q_head + 1) mod n;
    decr q_len;
    in_queue.(bid) <- false;
    let b = cfg.Cfg.blocks.(bid) in
    Array.blit rt_in.(bid) 0 env 0 w;
    for pc = b.b_start to b.b_stop - 2 do
      transfer env f.code.(pc)
    done;
    match f.code.(b.b_stop - 1) with
    | I.Br { cond; target; _ } ->
      try_edge bid cond cfg.Cfg.block_of_pc.(target) ~taken:true;
      try_edge bid cond cfg.Cfg.block_of_pc.(b.b_stop) ~taken:false
    | insn ->
      transfer env insn;
      List.iter feed_env b.b_succs
  done;
  { rt_func = f; rt_cfg = cfg; rt_cmp; rt_reached; rt_in }

let executable t b = t.rt_reached.(b)

let env_at t ~pc =
  let b = t.rt_cfg.Cfg.blocks.(t.rt_cfg.Cfg.block_of_pc.(pc)) in
  if not t.rt_reached.(b.b_id) then
    invalid_arg "Range.env_at: unreachable block";
  box (run_to t b ~stop:pc)

(* The fixpoint keeps no edge environments: a change to a block's entry
   environment re-queues the block, so its last visit read the final
   one, and running the block again from it reproduces what that visit
   fed.  When both edges of a branch lead to one block, the fall edge
   is fed last and decides. *)
let edge_env t u v =
  if not t.rt_reached.(u) then None
  else
    let b = t.rt_cfg.Cfg.blocks.(u) in
    let e = run_to t b ~stop:(b.b_stop - 1) in
    match t.rt_func.code.(b.b_stop - 1) with
    | I.Br { cond; target; _ } ->
      let fall = t.rt_cfg.Cfg.block_of_pc.(b.b_stop) in
      if v <> fall && v <> t.rt_cfg.Cfg.block_of_pc.(target) then None
      else (
        match refine e cond t.rt_cmp.(u) ~taken:(v <> fall) with
        | () -> Some (box e)
        | exception Empty -> None)
    | insn ->
      if List.exists (fun s -> s = v) b.b_succs then begin
        transfer e insn;
        Some (box e)
      end
      else None
