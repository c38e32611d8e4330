module P = Fisher92_ir.Program
module I = Fisher92_ir.Insn

type fate = Always_taken | Always_not_taken | Both | Unexecuted

let fate_name = function
  | Always_taken -> "always-taken"
  | Always_not_taken -> "always-not-taken"
  | Both -> "both"
  | Unexecuted -> "unexecuted"

type t = { fates : fate array; cond_const : int option array }

(* The three-point lattice, split by register file.  [Top] means "no
   feasible path has produced a value yet" (optimistic); [Bot] means
   "more than one value, or a value the analysis cannot know". *)
type value = Top | Ci of int | Cf of float | Bot

(* NaN-proof equality: float constants compare by representation, so a
   stable NaN does not look like a change forever. *)
let value_eq a b =
  match (a, b) with
  | Top, Top | Bot, Bot -> true
  | Ci x, Ci y -> x = y
  | Cf x, Cf y -> Int64.bits_of_float x = Int64.bits_of_float y
  | _ -> false

let meet a b =
  match (a, b) with
  | Top, v | v, Top -> v
  | (Ci _ | Cf _), _ when value_eq a b -> a
  | _ -> Bot

(* One environment maps the unified register index space (int registers
   then float registers, as in {!Defuse.index}) to lattice values. *)
let meet_env ~into src =
  let changed = ref false in
  for r = 0 to Array.length src - 1 do
    let m = meet into.(r) src.(r) in
    if not (value_eq m into.(r)) then begin
      into.(r) <- m;
      changed := true
    end
  done;
  !changed

(* Mirrors Vm.ibin_eval minus the traps: a divisor of zero would stop
   the program, so the result claims nothing. *)
let ibin_eval op a b =
  let open I in
  match op with
  | Add -> Some (a + b)
  | Sub -> Some (a - b)
  | Mul -> Some (a * b)
  | Div -> if b = 0 then None else Some (a / b)
  | Rem -> if b = 0 then None else Some (a mod b)
  | And -> Some (a land b)
  | Or -> Some (a lor b)
  | Xor -> Some (a lxor b)
  | Shl -> Some (a lsl (b land 63))
  | Shr -> Some (a asr (b land 63))
  | Min -> Some (if a < b then a else b)
  | Max -> Some (if a > b then a else b)

let fbin_eval op a b =
  let open I in
  match op with
  | Fadd -> a +. b
  | Fsub -> a -. b
  | Fmul -> a *. b
  | Fdiv -> a /. b
  | Fmin -> Float.min a b
  | Fmax -> Float.max a b

let funop_eval op a =
  let open I in
  match op with
  | Fneg -> -.a
  | Fabs -> Float.abs a
  | Fsqrt -> sqrt a
  | Fexp -> exp a
  | Flog -> log a
  | Fsin -> sin a
  | Fcos -> cos a

(* One compare per register file, each specialized by its operand
   type: the float one keeps IEEE semantics (a NaN is unequal to
   everything, itself included), as the VM's does. *)
let icmp_eval c (a : int) b =
  match c with
  | I.Eq -> a = b
  | I.Ne -> a <> b
  | I.Lt -> a < b
  | I.Le -> a <= b
  | I.Gt -> a > b
  | I.Ge -> a >= b

let fcmp_eval c (a : float) b =
  match c with
  | I.Eq -> a = b
  | I.Ne -> a <> b
  | I.Lt -> a < b
  | I.Le -> a <= b
  | I.Gt -> a > b
  | I.Ge -> a >= b

let lift_i = function Some v -> Ci v | None -> Bot
let bool_i b = Ci (if b then 1 else 0)

(* Transfer of one instruction over an environment indexed like
   Defuse.index: integer register r at [r], float register r at
   [n_iregs + r]. *)
let transfer (f : P.func) env insn =
  let geti r = env.(r) in
  let getf r = env.(f.n_iregs + r) in
  let seti r v = env.(r) <- v in
  let setf r v = env.(f.n_iregs + r) <- v in
  match insn with
  | I.Iconst (d, k) -> seti d (Ci k)
  | I.Fconst (d, x) -> setf d (Cf x)
  | I.Imov (d, s) -> seti d (geti s)
  | I.Fmov (d, s) -> setf d (getf s)
  | I.Ibin (op, d, a, b) ->
    seti d
      (match (geti a, geti b) with
      | Ci x, Ci y -> lift_i (ibin_eval op x y)
      | Top, _ | _, Top -> Top
      | _ -> Bot)
  | I.Ibini (op, d, a, k) ->
    seti d
      (match geti a with
      | Ci x -> lift_i (ibin_eval op x k)
      | Top -> Top
      | _ -> Bot)
  | I.Inot (d, s) ->
    seti d
      (match geti s with
      | Ci x -> Ci (if x = 0 then 1 else 0)
      | Top -> Top
      | _ -> Bot)
  | I.Ineg (d, s) ->
    seti d (match geti s with Ci x -> Ci (-x) | Top -> Top | _ -> Bot)
  | I.Fbin (op, d, a, b) ->
    setf d
      (match (getf a, getf b) with
      | Cf x, Cf y -> Cf (fbin_eval op x y)
      | Top, _ | _, Top -> Top
      | _ -> Bot)
  | I.Funop (op, d, s) ->
    setf d
      (match getf s with Cf x -> Cf (funop_eval op x) | Top -> Top | _ -> Bot)
  | I.Icmp (c, d, a, b) ->
    seti d
      (match (geti a, geti b) with
      | Ci x, Ci y -> bool_i (icmp_eval c x y)
      | Top, _ | _, Top -> Top
      | _ -> Bot)
  | I.Fcmp (c, d, a, b) ->
    seti d
      (match (getf a, getf b) with
      | Cf x, Cf y -> bool_i (fcmp_eval c x y)
      | Top, _ | _, Top -> Top
      | _ -> Bot)
  | I.Itof (d, s) ->
    setf d (match geti s with Ci x -> Cf (float_of_int x) | Top -> Top | _ -> Bot)
  | I.Ftoi (d, s) ->
    (* int_of_float is only a defined truncation for finite in-range
       floats; outside that the VM's result is platform noise we refuse
       to predict. *)
    seti d
      (match getf s with
      | Cf x when Float.is_finite x && Float.abs x < 4.0e18 ->
        Ci (int_of_float x)
      | Top -> Top
      | _ -> Bot)
  | I.Iload (d, _, _) -> seti d Bot
  | I.Fload (d, _, _) -> setf d Bot
  | I.Istore _ | I.Fstore _ -> ()
  | I.Select (d, c, a, b) ->
    seti d
      (match geti c with
      | Ci 0 -> geti b
      | Ci _ -> geti a
      | Top -> Top
      | Cf _ | Bot -> meet (geti a) (geti b))
  | I.Fselect (d, c, a, b) ->
    setf d
      (match geti c with
      | Ci 0 -> getf b
      | Ci _ -> getf a
      | Top -> Top
      | Cf _ | Bot -> meet (getf a) (getf b))
  | I.Call { dst; _ } | I.Callind { dst; _ } -> (
    match dst with
    | I.No_dest -> ()
    | I.Int_dest d -> seti d Bot
    | I.Float_dest d -> setf d Bot)
  | I.Br _ | I.Jump _ | I.Ret _ | I.Output _ | I.Foutput _ | I.Halt -> ()

(* Per-function result: per-block entry environments plus executable
   flags, for the blocks a feasible path reaches. *)
type func_result = {
  fr_in : value array array;
  fr_exec : bool array;
}

let analyze_func (f : P.func) cfg =
  let n_blocks = Cfg.n_blocks cfg in
  let nregs = Defuse.n_regs f in
  let top () = Array.make nregs Top in
  let fr_in = Array.init n_blocks (fun _ -> top ()) in
  let fr_exec = Array.make n_blocks false in
  (* entry environment: the VM zero-inits every register, then blits
     the parameters over; parameters carry unknown caller values. *)
  let entry_env = Array.make nregs Bot in
  for r = 0 to nregs - 1 do
    let reg = if r < f.n_iregs then Defuse.Ir r else Defuse.Fr (r - f.n_iregs) in
    if not (Defuse.is_param f reg) then
      entry_env.(r) <- (if r < f.n_iregs then Ci 0 else Cf 0.0)
  done;
  let queue = Queue.create () in
  let in_queue = Array.make n_blocks false in
  let enqueue b =
    if not in_queue.(b) then begin
      in_queue.(b) <- true;
      Queue.add b queue
    end
  in
  ignore (meet_env ~into:fr_in.(cfg.Cfg.entry) entry_env);
  fr_exec.(cfg.Cfg.entry) <- true;
  enqueue cfg.Cfg.entry;
  let feed succ env =
    let b = Cfg.(cfg.blocks.(succ)) in
    let changed = meet_env ~into:fr_in.(b.b_id) env in
    if (not fr_exec.(b.b_id)) || changed then begin
      fr_exec.(b.b_id) <- true;
      enqueue b.b_id
    end
  in
  while not (Queue.is_empty queue) do
    let bid = Queue.pop queue in
    in_queue.(bid) <- false;
    let b = Cfg.(cfg.blocks.(bid)) in
    let env = Array.copy fr_in.(bid) in
    for pc = b.b_start to b.b_stop - 2 do
      transfer f env f.code.(pc)
    done;
    let last = f.code.(b.b_stop - 1) in
    (match last with
    | I.Br { cond; target; _ } -> (
      let fall = b.b_stop in
      match env.(cond) with
      | Ci 0 -> feed cfg.Cfg.block_of_pc.(fall) env
      | Ci _ -> feed cfg.Cfg.block_of_pc.(target) env
      | Top -> () (* no feasible value yet: keep both edges dormant *)
      | Cf _ | Bot ->
        transfer f env last;
        feed cfg.Cfg.block_of_pc.(target) env;
        feed cfg.Cfg.block_of_pc.(fall) env)
    | _ ->
      transfer f env last;
      List.iter (fun s -> feed s env) b.b_succs)
  done;
  { fr_in; fr_exec }

let analyze (p : P.t) cfgs =
  let n = P.n_sites p in
  let fates = Array.make n Unexecuted in
  let cond_const = Array.make n None in
  Array.iteri
    (fun fid (f : P.func) ->
      let cfg = cfgs.(fid) in
      let r = analyze_func f cfg in
      Array.iter
        (fun (b : Cfg.block) ->
          match f.code.(b.b_stop - 1) with
          | I.Br { cond; site; _ } when r.fr_exec.(b.b_id) ->
            let env = Array.copy r.fr_in.(b.b_id) in
            for pc = b.b_start to b.b_stop - 2 do
              transfer f env f.code.(pc)
            done;
            (match env.(cond) with
            | Ci 0 ->
              fates.(site) <- Always_not_taken;
              cond_const.(site) <- Some 0
            | Ci v ->
              fates.(site) <- Always_taken;
              cond_const.(site) <- Some v
            | Top | Cf _ | Bot -> fates.(site) <- Both)
          | _ -> ())
        cfg.Cfg.blocks)
    p.funcs;
  { fates; cond_const }
