open Fisher92_util
open Fisher92_minic.Dsl
module Ast = Fisher92_minic.Ast
module Workload = Fisher92_workloads.Workload

type template = Biased | Periodic | Mixed | Adversarial

let template_name = function
  | Biased -> "biased"
  | Periodic -> "periodic"
  | Mixed -> "mixed"
  | Adversarial -> "adversarial"

let template_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "biased" -> Some Biased
  | "periodic" -> Some Periodic
  | "mixed" -> Some Mixed
  | "adversarial" -> Some Adversarial
  | _ -> None

let all_templates = [ Biased; Periodic; Mixed; Adversarial ]

type params = {
  gp_template : template;
  gp_bias : int;
  gp_shift : int;
  gp_funcs : int;
  gp_depth : int;
  gp_stmts : int;
  gp_iters : int;
  gp_data_len : int;
  gp_datasets : int;
  gp_switch_arms : int;
  gp_indirect : bool;
  gp_early_exit : bool;
}

let default_params =
  {
    gp_template = Mixed;
    gp_bias = 85;
    gp_shift = 0;
    gp_funcs = 2;
    gp_depth = 2;
    gp_stmts = 8;
    gp_iters = 40;
    gp_data_len = 256;
    gp_datasets = 2;
    gp_switch_arms = 4;
    gp_indirect = true;
    gp_early_exit = true;
  }

let describe p =
  Printf.sprintf "%s bias=%d shift=%d funcs=%d depth=%d stmts=%d iters=%d"
    (template_name p.gp_template) p.gp_bias p.gp_shift p.gp_funcs p.gp_depth
    p.gp_stmts p.gp_iters

let is_pow2 n = n > 0 && n land (n - 1) = 0

let validate p =
  let fail fmt = Printf.ksprintf invalid_arg fmt in
  if not (is_pow2 p.gp_data_len) || p.gp_data_len < 16 then
    fail "Gen.generate: gp_data_len %d is not a power of two >= 16" p.gp_data_len;
  if p.gp_datasets < 2 then fail "Gen.generate: gp_datasets %d < 2" p.gp_datasets;
  if p.gp_funcs < 1 || p.gp_funcs > 4 then
    fail "Gen.generate: gp_funcs %d outside 1..4" p.gp_funcs;
  if p.gp_bias < 50 || p.gp_bias > 99 then
    fail "Gen.generate: gp_bias %d outside 50..99" p.gp_bias;
  if p.gp_shift < 0 || p.gp_shift > 100 then
    fail "Gen.generate: gp_shift %d outside 0..100" p.gp_shift;
  if p.gp_switch_arms < 2 || p.gp_switch_arms > 8 then
    fail "Gen.generate: gp_switch_arms %d outside 2..8" p.gp_switch_arms;
  if p.gp_depth < 1 then fail "Gen.generate: gp_depth %d < 1" p.gp_depth;
  if p.gp_stmts < 2 then fail "Gen.generate: gp_stmts %d < 2" p.gp_stmts;
  if p.gp_iters < 1 then fail "Gen.generate: gp_iters %d < 1" p.gp_iters

(* Dataset values are [u*u/1000] for [u] uniform in [0, 1000): skewed
   toward 0, range [0, 998].  The skew is what makes drift real: under a
   uniform distribution, P(v < t) shifts the same amount for every
   threshold, whereas flipping this skew moves weakly-biased sites past
   the majority point while barely moving strongly-biased ones. *)
let value_lo = 0
let value_hi = 998
let value_mask = 1023

(* Threshold giving a threshold branch [v < t] a taken-probability of
   about [pct]% on unflipped data: P(v < t) = sqrt(t/1000). *)
let threshold_for pct =
  let b = float_of_int pct /. 100.0 in
  let t = int_of_float (1000.0 *. b *. b) in
  max (value_lo + 1) (min value_hi t)

(* Generation context.  [guarded] lists the data variables whose value
   an enclosing guard has already constrained on the current path: a
   nested condition on such a variable could be decided by the dominating
   check (a Contradictory_guard lint), so condition-building kinds only
   draw from the unguarded ones. *)
type ctx = { rng : Rng.t; p : params; mask : int; mutable fresh : int }

type scope = {
  vars : string list;  (** data-value locals in [0, 1023], oldest last *)
  ctrs : string list;  (** nonnegative loop counters in scope *)
  guarded : string list;
  depth : int;
  in_loop : bool;
}

let fresh ctx prefix =
  let n = ctx.fresh in
  ctx.fresh <- n + 1;
  Printf.sprintf "%s%d" prefix n

(* [data_at ctx e] loads a dataset value: the index is masked into
   bounds (any nonnegative expression stays in [0, len)), the value
   masked into [0, 1023] so the program is in-range and terminating on
   {e any} dataset, not just the generated ones. *)
let data_at ctx e = band (ld "data" (band e (i ctx.mask))) (i value_mask)

let pick_var ctx sc =
  match List.filter (fun x -> not (List.mem x sc.guarded)) sc.vars with
  | [] -> None
  | free -> Some (Rng.pick ctx.rng (Array.of_list free))

let pick_ctr ctx sc =
  match sc.ctrs with
  | [] -> None
  | cs -> Some (Rng.pick ctx.rng (Array.of_list cs))

(* A small accumulator bump.  Every payload reads [acc], so no store is
   ever dead; reading a var or counter keeps the surrounding state
   live. *)
let payload ctx sc =
  let e =
    match Rng.int ctx.rng 4 with
    | 0 -> i (Rng.int_in ctx.rng 1 9)
    | 1 -> (
      match pick_ctr ctx sc with
      | Some c -> v c +: i 1
      | None -> i (Rng.int_in ctx.rng 1 9))
    | _ -> (
      match sc.vars with
      | [] -> i (Rng.int_in ctx.rng 1 9)
      | x :: _ -> band (v x) (i 15))
  in
  set "acc" (v "acc" +: e)

type kind =
  | KBias
  | KCorr
  | KPeriodic
  | KAdvers
  | KSwitch
  | KSwitchCtr
  | KLoop
  | KWhile
  | KEarly
  | KAdd

let weights p =
  match p.gp_template with
  | Biased ->
    [|
      (5, KBias); (3, KCorr); (2, KLoop); (1, KSwitch); (2, KEarly); (1, KWhile);
      (1, KAdd);
    |]
  | Periodic ->
    [| (5, KPeriodic); (3, KSwitchCtr); (2, KLoop); (1, KCorr); (1, KAdd) |]
  | Adversarial ->
    [| (5, KAdvers); (2, KSwitch); (2, KLoop); (1, KWhile); (1, KAdd) |]
  | Mixed ->
    [|
      (3, KBias); (2, KCorr); (2, KPeriodic); (2, KAdvers); (2, KSwitch);
      (1, KSwitchCtr); (2, KLoop); (1, KWhile); (1, KEarly); (1, KAdd);
    |]

let feasible ctx sc kind =
  match kind with
  | KAdd -> true
  | KPeriodic | KSwitchCtr -> sc.ctrs <> []
  | KLoop -> sc.depth > 0 && sc.vars <> []
  | KWhile -> sc.depth > 0 && pick_var ctx sc <> None
  | KEarly -> ctx.p.gp_early_exit && sc.in_loop && pick_var ctx sc <> None
  | KBias | KCorr | KAdvers | KSwitch -> pick_var ctx sc <> None

let pick_kind ctx sc =
  match Array.to_list (weights ctx.p) |> List.filter (fun (_, k) -> feasible ctx sc k) with
  | [] -> KAdd
  | ws -> Rng.pick_weighted ctx.rng (Array.of_list ws)

(* The switch mask must be [2^k - 1] (a submask like 0b101 would make
   some case constants unreachable bit patterns) and wider than the case
   set, so the default arm stays genuinely reachable. *)
let switch_mask arms =
  let rec pow2 n = if n >= 2 * arms then n else pow2 (2 * n) in
  pow2 2 - 1

let rec gen_stmts ctx sc budget =
  if budget <= 0 then []
  else begin
    let stmts, cost, sc = gen_stmt ctx sc in
    stmts @ gen_stmts ctx sc (budget - cost)
  end

and subblock ctx sc ~guard =
  let sc = { sc with guarded = guard @ sc.guarded; depth = sc.depth - 1 } in
  if sc.depth >= 0 && Rng.chance ctx.rng 0.35 then
    payload ctx sc :: gen_stmts ctx sc 1
  else [ payload ctx sc ]

(* An early exit refines the range of its guard variable on the
   fall-through path for the remainder of the enclosing block, so any
   later guard on the same variable risks being statically decided
   (contradictory-guard).  KEarly therefore returns a scope with its
   variable added to [guarded]; every other kind leaves the scope
   unchanged. *)
and gen_stmt ctx sc =
  match pick_kind ctx sc with
  | KEarly -> (
    match pick_var ctx sc with
    | None -> ([ payload ctx sc ], 1, sc)
    | Some x ->
      let t = Rng.int_in ctx.rng 940 990 in
      let exit = if Rng.chance ctx.rng 0.7 then brk else cont in
      ( [ when_ (v x >: i t) [ exit ] ],
        1,
        { sc with guarded = x :: sc.guarded } ))
  | kind ->
    let stmts, cost = gen_stmt_kind ctx sc kind in
    (stmts, cost, sc)

and gen_stmt_kind ctx sc kind =
  match kind with
  | KEarly (* dispatched above *) | KAdd -> ([ payload ctx sc ], 1)
  | KBias -> (
    match pick_var ctx sc with
    | None -> ([ payload ctx sc ], 1)
    | Some x ->
      let t = threshold_for (Rng.int_in ctx.rng (ctx.p.gp_bias - 4) (ctx.p.gp_bias + 4)) in
      let cond = if Rng.chance ctx.rng 0.3 then v x >=: i t else v x <: i t in
      let body = subblock ctx sc ~guard:[ x ] in
      if Rng.chance ctx.rng 0.3 then
        ([ if_ cond body [ payload ctx { sc with guarded = x :: sc.guarded } ] ], 2)
      else ([ when_ cond body ], 1))
  | KCorr -> (
    match pick_var ctx sc with
    | None -> ([ payload ctx sc ], 1)
    | Some x ->
      let t = threshold_for ctx.p.gp_bias in
      let delta = Rng.int_in ctx.rng 30 150 in
      let first = when_ (v x <: i t) (subblock ctx sc ~guard:[ x ]) in
      let second =
        if Rng.bool ctx.rng then
          (* correlated: taken implies the first was taken *)
          when_ (v x <: i (max 1 (t - delta))) (subblock ctx sc ~guard:[ x ])
        else
          (* anticorrelated: taken implies the first was not *)
          when_ (v x >: i (min value_hi (t + delta))) (subblock ctx sc ~guard:[ x ])
      in
      ([ first; second ], 2))
  | KPeriodic -> (
    match pick_ctr ctx sc with
    | None -> ([ payload ctx sc ], 1)
    | Some c ->
      let k = Rng.int_in ctx.rng 2 5 in
      let m = Rng.int_in ctx.rng 1 (k - 1) in
      ([ when_ (v c %: i k <: i m) (subblock ctx sc ~guard:[]) ], 1))
  | KAdvers -> (
    match pick_var ctx sc with
    | None -> ([ payload ctx sc ], 1)
    | Some x ->
      let bit = 1 lsl Rng.int ctx.rng 3 in
      ([ when_ (band (v x) (i bit) =: i 0) (subblock ctx sc ~guard:[ x ]) ], 1))
  | (KSwitch | KSwitchCtr) as kd -> (
    let arms = ctx.p.gp_switch_arms in
    let m = switch_mask arms in
    let sel_bits =
      (* log2 (m + 1): the data scrutinee shifts the skewed value down
         so the selector follows the data skew instead of its (nearly
         uniform) low bits *)
      let rec lg n acc = if n <= 1 then acc else lg (n / 2) (acc + 1) in
      lg (m + 1) 0
    in
    let scrut =
      match kd with
      | KSwitchCtr -> (
        match pick_ctr ctx sc with
        | Some c -> Some (band (v c) (i m))
        | None -> None)
      | _ -> (
        match pick_var ctx sc with
        | Some x -> Some (band (shr (v x) (i (10 - sel_bits))) (i m))
        | None -> None)
    in
    match scrut with
    | None -> ([ payload ctx sc ], 1)
    | Some scrut ->
      let arms_list =
        List.init arms (fun k ->
            case k [ set "acc" (v "acc" +: i ((k * 3) + 1)) ])
      in
      let default = [ set "acc" (v "acc" +: i 2) ] in
      ([ switch_ scrut arms_list default ], 2))
  | KLoop -> (
    match sc.vars with
    | [] -> ([ payload ctx sc ], 1)
    | x :: _ ->
      let jn = fresh ctx "j" in
      let inner =
        {
          sc with
          ctrs = jn :: sc.ctrs;
          depth = sc.depth - 1;
          in_loop = true;
        }
      in
      let body = payload ctx inner :: gen_stmts ctx inner 2 in
      ([ for_ jn (i 0) (band (v x) (i 7) +: i 1) body ], 2))
  | KWhile -> (
    match pick_var ctx sc with
    | None -> ([ payload ctx sc ], 1)
    | Some x ->
      let wn = fresh ctx "w" in
      let lim = Rng.int_in ctx.rng 3 8 in
      let t = threshold_for ctx.p.gp_bias in
      let cond =
        data_at ctx (v x +: v wn) <: i t &&: (v wn <: i lim)
      in
      let inner = { sc with ctrs = wn :: sc.ctrs; depth = sc.depth - 1 } in
      (* the increment must run on every iteration, so the body is a
         straight line: no early exits are generated inside it *)
      ([ leti wn (i 0); while_ cond [ payload ctx inner; set wn (v wn +: i 1) ] ], 2))

(* Declare [n] data-value locals at generator-chosen indices mixed from
   [base] (an in-scope nonnegative expression), returning the
   declarations and the names.  Every block that declares vars also
   consumes them (see [consume]) so none can be a dead store. *)
let declare_vars ctx ~base n =
  let names = List.init n (fun _ -> fresh ctx "x") in
  let decls =
    List.map
      (fun x ->
        let a = Rng.int_in ctx.rng 1 31 in
        let b = Rng.int ctx.rng ctx.p.gp_data_len in
        leti x (data_at ctx ((base *: i a) +: i b)))
      names
  in
  (decls, names)

let consume names =
  match names with
  | [] -> []
  | _ ->
    let sum = List.fold_left (fun e x -> e +: v x) (i 0) names in
    [ set "acc" (v "acc" +: band sum (i 15)) ]

let worker_name k = Printf.sprintf "work%d" k

let gen_worker ctx k =
  let decls, names = declare_vars ctx ~base:(v "base") (1 + Rng.int ctx.rng 2) in
  let trips = Rng.int_in ctx.rng 2 5 in
  let xl = fresh ctx "x" in
  let sc =
    {
      vars = xl :: names;
      ctrs = [ "t" ];
      guarded = [];
      depth = ctx.p.gp_depth - 1;
      in_loop = true;
    }
  in
  let loop_body =
    leti xl (data_at ctx (v "base" +: (v "t" *: i 17)))
    :: gen_stmts ctx sc (max 2 (ctx.p.gp_stmts / 2))
    @ consume [ xl ]
  in
  fn (worker_name k)
    [ pi "base" ]
    ~ret:Ast.Tint
    ([ leti "acc" (band (v "base") (i 7)) ]
    @ decls
    @ [ for_ "t" (i 0) (i trips) loop_body ]
    @ consume names
    @ [ ret (v "acc") ])

(* One call statement per worker per outer iteration, so every worker's
   sites carry dynamic weight; indirect programs route a share of them
   through the fn table on a data-dependent slot. *)
let gen_calls ctx names =
  List.mapi
    (fun k fname ->
      let x = match names with [] -> v "rep" | x :: _ -> v x in
      let arg = band (x +: v "rep" +: i (k * 3)) (i 255) in
      if ctx.p.gp_indirect && k land 1 = 1 then
        let slot = band x (i 7) %: i ctx.p.gp_funcs in
        set "acc" (v "acc" +: callp ~ret:Ast.Tint slot [ arg ])
      else set "acc" (v "acc" +: call fname [ arg ]))
    (List.init ctx.p.gp_funcs worker_name)

let gen_main ctx =
  let decls, names =
    declare_vars ctx ~base:(v "rep") (2 + Rng.int ctx.rng 2)
  in
  let sc =
    {
      vars = names;
      ctrs = [ "rep" ];
      guarded = [];
      depth = ctx.p.gp_depth;
      in_loop = true;
    }
  in
  let body =
    decls
    @ gen_stmts ctx sc ctx.p.gp_stmts
    @ gen_calls ctx names
    @ consume names
  in
  fn "main" [] ~ret:Ast.Tint
    [
      leti "acc" (i 0);
      for_ "rep" (i 0) (g "reps") body;
      out (v "acc");
      ret (v "acc");
    ]

let gen_program ctx name =
  let workers = List.init ctx.p.gp_funcs (gen_worker ctx) in
  let main = gen_main ctx in
  let fn_table =
    (* one slot per worker; slot expressions reduce mod gp_funcs, so
       every index is in range and the table never repeats a name *)
    if ctx.p.gp_indirect then List.init ctx.p.gp_funcs worker_name else []
  in
  program name ~entry:"main" ~fn_table
    ~globals:[ gint "reps" ctx.p.gp_iters ]
    ~arrays:[ iarr "data" ctx.p.gp_data_len ]
    (workers @ [ main ])

let gen_dataset p ~seed d =
  let r = Rng.create ((seed * 65599) lxor (d * 40503) lxor 0x53594e) in
  let flip =
    d land 1 = 1 && Rng.chance r (float_of_int p.gp_shift /. 100.0)
  in
  let data =
    Array.init p.gp_data_len (fun _ ->
        let u = Rng.int r 1000 in
        let x = u * u / 1000 in
        if flip then 999 - x else x)
  in
  let reps = p.gp_iters + (d * max 1 (p.gp_iters / 8)) in
  {
    Workload.ds_name = Printf.sprintf "d%d" d;
    ds_descr =
      (if flip then "skew-flipped draws, " else "skewed draws, ")
      ^ Printf.sprintf "%d reps" reps;
    ds_iargs = [];
    ds_fargs = [];
    ds_arrays = [ ("$reps", `Ints [| reps |]); ("data", `Ints data) ];
  }

let generate ?name p ~seed =
  validate p;
  let name = match name with Some n -> n | None -> Printf.sprintf "syn%d" seed in
  let ctx = { rng = Rng.create seed; p; mask = p.gp_data_len - 1; fresh = 0 } in
  (* The program (not workload) name carries a digest of (params, seed),
     stamping provenance into the emitted .mc source.  It also keeps
     every generation's structural Fingerprint.program_hash distinct:
     that hash is deliberately edit-tolerant (branch-site structure, not
     immediate constants), so two generations differing only in (say)
     threshold constants would otherwise share a profile identity.  The
     stores need no such help: they key on Fingerprint.content_hash,
     which covers every constant. *)
  let pname =
    let tag =
      Fnv.hash_strings
        [
          describe p;
          string_of_int p.gp_data_len;
          string_of_int p.gp_datasets;
          string_of_int p.gp_switch_arms;
          string_of_bool p.gp_indirect;
          string_of_bool p.gp_early_exit;
          string_of_int seed;
        ]
    in
    Printf.sprintf "%s+%s" name (String.sub tag 0 (min 8 (String.length tag)))
  in
  let prog = gen_program ctx pname in
  let datasets = List.init p.gp_datasets (gen_dataset p ~seed) in
  {
    Workload.w_name = name;
    w_paper_name = "synthetic";
    w_lang = Workload.C_int;
    w_descr = Printf.sprintf "generated: %s seed=%d" (describe p) seed;
    w_program = prog;
    w_seeded_globals = [ "reps" ];
    w_datasets = datasets;
  }
