module P = Fisher92_ir.Program
module I = Fisher92_ir.Insn

type interval = { lo : int; hi : int }

let ninf = min_int
let pinf = max_int
let top = { lo = ninf; hi = pinf }
let const k = { lo = k; hi = k }
let is_const i = if i.lo = i.hi && i.lo <> ninf && i.lo <> pinf then Some i.lo else None
let is_zero i = i.lo = 0 && i.hi = 0
let mem v i = i.lo <= v && v <= i.hi
let join a b = { lo = Int.min a.lo b.lo; hi = Int.max a.hi b.hi }

let inter a b =
  let lo = Int.max a.lo b.lo and hi = Int.min a.hi b.hi in
  if lo <= hi then Some { lo; hi } else None

let to_string i =
  let b v = if v = ninf then "-inf" else if v = pinf then "+inf" else string_of_int v in
  if i.lo = i.hi then Printf.sprintf "[%s]" (b i.lo)
  else Printf.sprintf "[%s, %s]" (b i.lo) (b i.hi)

(* ---- arithmetic ----

   The VM wraps silently on native-int overflow, so a clamped bound
   would be unsound: whenever an endpoint computation overflows, or an
   operand is unbounded (its actual value may sit at the native
   extreme where the next operation wraps), the result is top. *)

let finite i = i.lo <> ninf && i.hi <> pinf

let add_exact a b =
  let s = a + b in
  if (a >= 0) = (b >= 0) && (s >= 0) <> (a >= 0) then None else Some s

let norm lo hi =
  if lo = ninf || lo = pinf || hi = ninf || hi = pinf then top else { lo; hi }

let add a b =
  if not (finite a && finite b) then top
  else
    match (add_exact a.lo b.lo, add_exact a.hi b.hi) with
    | Some lo, Some hi -> norm lo hi
    | _ -> top

(* Negation wraps only on min_int itself, which an unbounded-below
   interval may contain. *)
let neg a =
  if a.lo = ninf then top
  else { lo = (if a.hi = pinf then ninf else -a.hi); hi = -a.lo }

let sub a b = add a (neg b)

let mul_exact a b =
  if a = 0 || b = 0 then Some 0
  else
    let p = a * b in
    if p / a = b && p <> ninf && p <> pinf then Some p else None

let mul a b =
  if is_zero a || is_zero b then const 0
  else if not (finite a && finite b) then top
  else
    match
      ( mul_exact a.lo b.lo, mul_exact a.lo b.hi, mul_exact a.hi b.lo,
        mul_exact a.hi b.hi )
    with
    | Some p1, Some p2, Some p3, Some p4 ->
      {
        lo = Int.min (Int.min p1 p2) (Int.min p3 p4);
        hi = Int.max (Int.max p1 p2) (Int.max p3 p4);
      }
    | _ -> top

(* min/max never overflow; the sentinels are extremal, so plain integer
   min/max on the bounds is exact. *)
let imin a b = { lo = Int.min a.lo b.lo; hi = Int.min a.hi b.hi }
let imax a b = { lo = Int.max a.lo b.lo; hi = Int.max a.hi b.hi }

let inot a =
  if is_zero a then const 1
  else if not (mem 0 a) then const 0
  else { lo = 0; hi = 1 }

let ibin op a b =
  match op with
  | I.Add -> add a b
  | I.Sub -> sub a b
  | I.Mul -> mul a b
  | I.Min -> imin a b
  | I.Max -> imax a b
  | I.Div | I.Rem | I.And | I.Or | I.Xor | I.Shl | I.Shr -> top

(* Comparison outcomes never wrap, and the sentinel reading "the actual
   value may sit at the native extreme" keeps these decisions sound. *)
let cmp_always c a b =
  match c with
  | I.Eq -> ( match (is_const a, is_const b) with
    | Some x, Some y -> x = y
    | _ -> false)
  | I.Ne -> Option.is_none (inter a b)
  | I.Lt -> a.hi < b.lo
  | I.Le -> a.hi <= b.lo
  | I.Gt -> b.hi < a.lo
  | I.Ge -> b.hi <= a.lo

let negate_cmp = function
  | I.Eq -> I.Ne
  | I.Ne -> I.Eq
  | I.Lt -> I.Ge
  | I.Le -> I.Gt
  | I.Gt -> I.Le
  | I.Ge -> I.Lt

let icmp c a b =
  if cmp_always c a b then const 1
  else if cmp_always (negate_cmp c) a b then const 0
  else { lo = 0; hi = 1 }

(* ---- transfer ----

   The environment covers the integer register file only; floats feed
   back in solely through compares ([0,1]) and truncation (top). *)

let transfer (env : interval array) insn =
  match insn with
  | I.Iconst (d, k) -> env.(d) <- const k
  | I.Imov (d, s) -> env.(d) <- env.(s)
  | I.Ibin (op, d, a, b) -> env.(d) <- ibin op env.(a) env.(b)
  | I.Ibini (op, d, a, k) -> env.(d) <- ibin op env.(a) (const k)
  | I.Inot (d, s) -> env.(d) <- inot env.(s)
  | I.Ineg (d, s) -> env.(d) <- neg env.(s)
  | I.Icmp (c, d, a, b) -> env.(d) <- icmp c env.(a) env.(b)
  | I.Fcmp (_, d, _, _) -> env.(d) <- { lo = 0; hi = 1 }
  | I.Ftoi (d, _) | I.Iload (d, _, _) -> env.(d) <- top
  | I.Select (d, c, a, b) ->
    env.(d) <-
      (if not (mem 0 env.(c)) then env.(a)
       else if is_zero env.(c) then env.(b)
       else join env.(a) env.(b))
  | I.Call { dst = I.Int_dest d; _ } | I.Callind { dst = I.Int_dest d; _ } ->
    env.(d) <- top
  | I.Fconst _ | I.Fmov _ | I.Fbin _ | I.Funop _ | I.Itof _ | I.Fload _
  | I.Istore _ | I.Fstore _ | I.Fselect _
  | I.Call _ | I.Callind _
  | I.Br _ | I.Jump _ | I.Ret _ | I.Output _ | I.Foutput _ | I.Halt ->
    ()

(* ---- condition back-trace ---- *)

let defines_ireg r insn =
  List.exists (function Defuse.Ir d -> d = r | Defuse.Fr _ -> false)
    (Defuse.defs insn)

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

let meet_into env r i =
  match inter env.(r) i with
  | Some m -> env.(r) <- m
  | None -> raise Empty

(* x < k upper bound: everything strictly below [k]. *)
let below k = if k = ninf then raise Empty else { lo = ninf; hi = k - 1 }
let above k = if k = pinf then raise Empty else { lo = k + 1; hi = pinf }
let at_most k = { lo = ninf; hi = k }
let at_least k = { lo = k; hi = pinf }

let nonzero i =
  if is_zero i then raise Empty
  else
    let lo = if i.lo = 0 then 1 else i.lo in
    let hi = if i.hi = 0 then -1 else i.hi in
    if lo <= hi then { lo; hi } else raise Empty

let exclude v i =
  match is_const i with
  | Some c when c = v -> raise Empty
  | _ ->
    let lo = if i.lo = v then v + 1 else i.lo in
    let hi = if i.hi = v then v - 1 else i.hi in
    if lo <= hi then { lo; hi } else i

(* Refine [env] (a copy, taken at the branch) along one edge of
   [Br {cond; _}].  Raises [Empty] when the edge is infeasible. *)
let refine_edge f b (env : interval array) cond ~taken =
  (if taken then env.(cond) <- nonzero env.(cond)
   else meet_into env cond (const 0));
  match cond_cmp f b with
  | None -> ()
  | Some (c, a, b2, flip, _) ->
    let holds = if taken then not flip else flip in
    let c = if holds then c else negate_cmp c in
    (match c with
    | I.Eq ->
      let m = match inter env.(a) env.(b2) with
        | Some m -> m
        | None -> raise Empty
      in
      env.(a) <- m;
      env.(b2) <- m
    | I.Ne ->
      (match is_const env.(b2) with
      | Some v -> env.(a) <- exclude v env.(a)
      | None -> ());
      (match is_const env.(a) with
      | Some v -> env.(b2) <- exclude v env.(b2)
      | None -> ())
    | I.Lt ->
      if env.(b2).hi <> pinf then meet_into env a (below env.(b2).hi);
      if env.(a).lo <> ninf then meet_into env b2 (above env.(a).lo)
    | I.Le ->
      if env.(b2).hi <> pinf then meet_into env a (at_most env.(b2).hi);
      if env.(a).lo <> ninf then meet_into env b2 (at_least env.(a).lo)
    | I.Gt ->
      if env.(b2).lo <> ninf then meet_into env a (above env.(b2).lo);
      if env.(a).hi <> pinf then meet_into env b2 (below env.(a).hi)
    | I.Ge ->
      if env.(b2).lo <> ninf then meet_into env a (at_least env.(b2).lo);
      if env.(a).hi <> pinf then meet_into env b2 (at_most env.(a).hi))

(* ---- fixpoint ---- *)

type t = {
  rt_func : P.func;
  rt_cfg : Cfg.t;
  rt_in : interval array option array;
  rt_edges : (int * int, interval array) Hashtbl.t;
}

let widen_after = 8
let hard_cap = 64

(* [a] within [b] register by register: exactly when joining [a] into
   [b] leaves [b] unchanged. *)
let env_within a b =
  let n = Array.length a in
  let rec go r =
    r >= n || (b.(r).lo <= a.(r).lo && a.(r).hi <= b.(r).hi && go (r + 1))
  in
  go 0

let widen old inc =
  Array.init (Array.length old) (fun r ->
      {
        lo = (if inc.(r).lo < old.(r).lo then ninf else old.(r).lo);
        hi = (if inc.(r).hi > old.(r).hi then pinf else old.(r).hi);
      })

let analyze (f : P.func) (cfg : Cfg.t) (_dom : Dom.t) (loops : Loops.t) =
  let n = Cfg.n_blocks cfg in
  let nir = f.n_iregs in
  let rt_in = Array.make n None in
  let rt_edges = Hashtbl.create 64 in
  let is_header = Array.make n false in
  Array.iter
    (fun (l : Loops.loop) -> is_header.(l.l_header) <- true)
    loops.Loops.loops;
  let updates = Array.make n 0 in
  let queue = Queue.create () in
  let in_queue = Array.make n false in
  let enqueue b =
    if not in_queue.(b) then begin
      in_queue.(b) <- true;
      Queue.add b queue
    end
  in
  let entry_env =
    Array.init nir (fun r ->
        if Defuse.is_param f (Defuse.Ir r) then top else const 0)
  in
  rt_in.(cfg.Cfg.entry) <- Some entry_env;
  enqueue cfg.Cfg.entry;
  let feed src dst env =
    Hashtbl.replace rt_edges (src, dst) env;
    match rt_in.(dst) with
    | None ->
      rt_in.(dst) <- Some (Array.copy env);
      enqueue dst
    | Some cur ->
      if not (env_within env cur) then begin
        let joined = Array.map2 join cur env in
        updates.(dst) <- updates.(dst) + 1;
        let next =
          if
            (is_header.(dst) && updates.(dst) > widen_after)
            || updates.(dst) > hard_cap
          then widen cur joined
          else joined
        in
        rt_in.(dst) <- Some next;
        enqueue dst
      end
  in
  while not (Queue.is_empty queue) do
    let bid = Queue.pop queue in
    in_queue.(bid) <- false;
    let b = cfg.Cfg.blocks.(bid) in
    match rt_in.(bid) with
    | None -> ()
    | Some env0 ->
      let env = Array.copy env0 in
      for pc = b.b_start to b.b_stop - 2 do
        transfer env f.code.(pc)
      done;
      (match f.code.(b.b_stop - 1) with
      | I.Br { cond; target; _ } ->
        let fall = cfg.Cfg.block_of_pc.(b.b_stop) in
        let tgt = cfg.Cfg.block_of_pc.(target) in
        let try_edge dst ~taken =
          let e = Array.copy env in
          match refine_edge f b e cond ~taken with
          | () -> feed bid dst e
          | exception Empty -> Hashtbl.remove rt_edges (bid, dst)
        in
        try_edge tgt ~taken:true;
        try_edge fall ~taken:false
      | insn ->
        transfer env insn;
        List.iter (fun s -> feed bid s env) b.b_succs)
  done;
  { rt_func = f; rt_cfg = cfg; rt_in; rt_edges }

let executable t b = Option.is_some t.rt_in.(b)

let env_at t ~pc =
  let b = t.rt_cfg.Cfg.blocks.(t.rt_cfg.Cfg.block_of_pc.(pc)) in
  match t.rt_in.(b.b_id) with
  | None -> invalid_arg "Range.env_at: unreachable block"
  | Some env0 ->
    let env = Array.copy env0 in
    for p = b.b_start to pc - 1 do
      transfer env t.rt_func.code.(p)
    done;
    env

let edge_env t u v = Hashtbl.find_opt t.rt_edges (u, v)
