module P = Fisher92_ir.Program
module I = Fisher92_ir.Insn

type trip = { tr_stay : bool; tr_min : int; tr_max : int }

type cls =
  | Proved_taken
  | Proved_not_taken
  | Loop_bounded of trip
  | Unknown

type source = Src_const | Src_range | Src_loop | Src_none

type site_class = { sc_cls : cls; sc_source : source; sc_detail : string }

type t = { classes : site_class array }

let cls_name = function
  | Proved_taken -> "proved-taken"
  | Proved_not_taken -> "proved-not-taken"
  | Loop_bounded _ -> "loop-bounded"
  | Unknown -> "unknown"

let predicted_direction = function
  | Proved_taken -> Some true
  | Proved_not_taken -> Some false
  | Loop_bounded { tr_stay; tr_min; _ } when tr_min >= 2 -> Some tr_stay
  | Loop_bounded _ | Unknown -> None

let counts t =
  Array.fold_left
    (fun (pt, pn, lb, un) sc ->
      match sc.sc_cls with
      | Proved_taken -> (pt + 1, pn, lb, un)
      | Proved_not_taken -> (pt, pn + 1, lb, un)
      | Loop_bounded _ -> (pt, pn, lb + 1, un)
      | Unknown -> (pt, pn, lb, un + 1))
    (0, 0, 0, 0) t.classes

(* ---- counted-loop trip bounds ----

   The shape we prove: a natural loop whose header ends in the only
   branch that can leave the loop, whose condition compares an induction
   variable against a range-bounded expression, where the induction
   variable has exactly one definition in the loop — a constant-step
   add/sub that executes exactly once between consecutive header tests.
   Then the i-th consecutive stay happens with iv = init + (i-1)*step,
   and the trip count is a monotone function of (init, bound), so
   evaluating it on the interval corners bounds every activation. *)

(* Magnitude clamp keeping every intermediate of the closed-form trip
   arithmetic — and the VM's own iv updates before the proved exit —
   far from native-int wraparound. *)
let clamp = 1 lsl 40

let mirror = function
  | I.Lt -> I.Gt
  | I.Le -> I.Ge
  | I.Gt -> I.Lt
  | I.Ge -> I.Le
  | c -> c

(* Stays of one activation when the test [iv rel bound] starts at
   [i0] and iv advances by [step]; [bound] may be a sentinel. *)
let trips rel ~step ~i0 ~bound =
  if step > 0 then begin
    if bound = max_int then max_int
    else if bound = min_int then 0
    else
      match rel with
      | I.Lt -> if i0 >= bound then 0 else (bound - i0 + step - 1) / step
      | I.Le -> if i0 > bound then 0 else ((bound - i0) / step) + 1
      | _ -> 0
  end
  else begin
    let s = -step in
    if bound = min_int then max_int
    else if bound = max_int then 0
    else
      match rel with
      | I.Gt -> if i0 <= bound then 0 else (i0 - bound + s - 1) / s
      | I.Ge -> if i0 < bound then 0 else ((i0 - bound) / s) + 1
      | _ -> 0
  end

(* Does a path from [src] reach [dst] through blocks that satisfy
   [members] (bar [dst]) and never pass [avoiding]? *)
let reachable_within (cfg : Cfg.t) members ~src ~dst ~avoiding =
  let seen = Array.make (Cfg.n_blocks cfg) false in
  let rec go (u : int) =
    if u = dst then true
    else if seen.(u) then false
    else begin
      seen.(u) <- true;
      u <> avoiding && members u
      && List.exists go cfg.Cfg.blocks.(u).b_succs
    end
  in
  if src = avoiding && src <> dst then false else go src

(* No cycle among the [members] reachable from [nodes]. *)
let acyclic (cfg : Cfg.t) members nodes =
  (* 0 = unvisited, 1 = on stack, 2 = done *)
  let color = Array.make (Cfg.n_blocks cfg) 0 in
  let rec visit (u : int) =
    match color.(u) with
    | 1 -> false
    | 2 -> true
    | _ ->
      color.(u) <- 1;
      let ok =
        List.for_all
          (fun v -> (not (members v)) || visit v)
          cfg.Cfg.blocks.(u).b_succs
      in
      color.(u) <- 2;
      ok
  in
  List.for_all visit nodes

let loop_bound (f : P.func) (cfg : Cfg.t) (loops : Loops.t) rng (b : Cfg.block)
    ~target =
  let h = b.b_id in
  let rec header_loop li =
    if li >= Loops.n_loops loops then None
    else if loops.Loops.loops.(li).l_header = h then Some li
    else header_loop (li + 1)
  in
  match header_loop 0 with
  | None -> None
  | Some li ->
    let l = loops.Loops.loops.(li) in
    let in_body bid = Loops.in_loop loops li bid in
    let succs bid = cfg.Cfg.blocks.(bid).b_succs in
    let preds bid = cfg.Cfg.blocks.(bid).b_preds in
    let tgt_b = cfg.Cfg.block_of_pc.(target) in
    let fall_b = cfg.Cfg.block_of_pc.(b.b_stop) in
    if tgt_b = fall_b then None
    else begin
      match (in_body tgt_b, in_body fall_b) with
      | true, true | false, false -> None
      | stay_is_target, _ -> (
        let stay_b = if stay_is_target then tgt_b else fall_b in
        let body_minus_h = List.filter (fun bid -> bid <> h) l.l_body in
        let in_s bid = bid <> h && in_body bid in
        let single_exit =
          List.for_all
            (fun u ->
              u = h || List.for_all (fun v -> in_body v) (succs u))
            l.l_body
        in
        (* reducibility of this loop: nothing enters it but the header *)
        let header_only_entry =
          List.for_all
            (fun u -> List.for_all (fun p -> in_body p) (preds u))
            body_minus_h
        in
        if
          (not single_exit) || (not header_only_entry) || stay_b = h
          || not (acyclic cfg in_s body_minus_h)
        then None
        else
          match Range.cond_cmp f b with
          | None -> None
          | Some (c, ra, rb, flip, cmp_pc) ->
            let stay_taken = stay_is_target in
            (* branch taken iff cmp xor flip, so the compare holds on a
               stay exactly when stay_taken xor flip; otherwise the
               staying relation is the negation *)
            let rel = if stay_taken <> flip then c else Range.negate_cmp c in
            (* one def in the whole body, a constant-step update, not in
               the header (so the first test still sees the entry value) *)
            let body_defs r =
              List.concat_map
                (fun bid ->
                  let blk = cfg.Cfg.blocks.(bid) in
                  let acc = ref [] in
                  for pc = blk.b_start to blk.b_stop - 1 do
                    if Range.defines_ireg r f.code.(pc) then
                      acc := (bid, pc) :: !acc
                  done;
                  !acc)
                l.l_body
            in
            let iv_candidate r =
              match body_defs r with
              | [ (bid, pc) ] when bid <> h -> (
                match f.code.(pc) with
                | I.Ibini (I.Add, d, s, k) when d = r && s = r -> Some (bid, k)
                | I.Ibini (I.Sub, d, s, k) when d = r && s = r -> Some (bid, -k)
                | _ -> None)
              | _ -> None
            in
            let once_per_stay ivb =
              (* acyclic body: "on every stay_b -> latch path" means
                 exactly once *)
              List.for_all
                (fun (tail, _) ->
                  ivb = stay_b || ivb = tail
                  || not
                       (reachable_within cfg in_s ~src:stay_b ~dst:tail
                          ~avoiding:ivb))
                l.l_back_edges
            in
            let entry_init r =
              List.fold_left
                (fun acc p ->
                  if in_body p then acc
                  else
                    match Range.edge_env rng p h with
                    | None -> acc
                    | Some env -> (
                      match acc with
                      | None -> Some env.(r)
                      | Some i -> Some (Range.join i env.(r))))
                None (preds h)
            in
            let attempt iv other rel =
              match iv_candidate iv with
              | Some (ivb, step)
                when step <> 0 && abs step <= clamp && once_per_stay ivb -> (
                let shape_ok =
                  match (step > 0, rel) with
                  | true, (I.Lt | I.Le) -> true
                  | false, (I.Gt | I.Ge) -> true
                  | _ -> false
                in
                if not shape_ok then None
                else
                  match entry_init iv with
                  | Some i0
                    when i0.Range.lo >= -clamp && i0.Range.hi <= clamp -> (
                    let n = (Range.env_at rng ~pc:cmp_pc).(other) in
                    let n_lo = if n.Range.lo < -clamp then min_int else n.Range.lo in
                    let n_hi = if n.Range.hi > clamp then max_int else n.Range.hi in
                    let tr_min, tr_max =
                      if step > 0 then
                        ( trips rel ~step ~i0:i0.Range.hi ~bound:n_lo,
                          trips rel ~step ~i0:i0.Range.lo ~bound:n_hi )
                      else
                        ( trips rel ~step ~i0:i0.Range.lo ~bound:n_hi,
                          trips rel ~step ~i0:i0.Range.hi ~bound:n_lo )
                    in
                    if tr_min > 0 || tr_max < max_int then
                      Some
                        ( { tr_stay = stay_taken; tr_min; tr_max },
                          Printf.sprintf
                            "counted loop: iv i%d step %+d, init %s, %s i%d \
                             in %s"
                            iv step (Range.to_string i0) (I.cmp_name rel)
                            other
                            (Range.to_string { Range.lo = n_lo; hi = n_hi })
                        )
                    else None)
                  | _ -> None)
              | _ -> None
            in
            (match attempt ra rb rel with
            | Some r -> Some r
            | None -> attempt rb ra (mirror rel)))
    end

(* ---- classification ---- *)

let classify (p : P.t) =
  let n = P.n_sites p in
  let unknown detail = { sc_cls = Unknown; sc_source = Src_none; sc_detail = detail } in
  let classes = Array.make n (unknown "") in
  let cfgs = Array.map Cfg.build p.funcs in
  let sccp = Sccp.analyze p cfgs in
  Array.iteri
    (fun fid (f : P.func) ->
      let cfg = cfgs.(fid) in
      let dom = Dom.compute cfg in
      let loops = Loops.compute cfg dom in
      let rng = Range.analyze f cfg dom loops in
      Array.iter
        (fun (b : Cfg.block) ->
          match f.code.(b.b_stop - 1) with
          | I.Br { cond; target; site } ->
            let sc =
              if
                sccp.Sccp.fates.(site) = Sccp.Unexecuted
                || not (Range.executable rng b.b_id)
              then unknown "no feasible path reaches this branch"
              else
                match sccp.Sccp.fates.(site) with
                | Sccp.Always_taken ->
                  {
                    sc_cls = Proved_taken;
                    sc_source = Src_const;
                    sc_detail =
                      Printf.sprintf "condition is the constant %d"
                        (match sccp.Sccp.cond_const.(site) with
                        | Some v -> v
                        | None -> 1);
                  }
                | Sccp.Always_not_taken ->
                  {
                    sc_cls = Proved_not_taken;
                    sc_source = Src_const;
                    sc_detail = "condition is the constant 0";
                  }
                | Sccp.Both | Sccp.Unexecuted -> (
                  let ci = (Range.env_at rng ~pc:(b.b_stop - 1)).(cond) in
                  if not (Range.mem 0 ci) then
                    {
                      sc_cls = Proved_taken;
                      sc_source = Src_range;
                      sc_detail =
                        Printf.sprintf "condition range %s excludes 0"
                          (Range.to_string ci);
                    }
                  else if ci.Range.lo = 0 && ci.Range.hi = 0 then
                    {
                      sc_cls = Proved_not_taken;
                      sc_source = Src_range;
                      sc_detail = "condition range is [0]";
                    }
                  else
                    match loop_bound f cfg loops rng b ~target with
                    | Some (trip, detail) ->
                      {
                        sc_cls = Loop_bounded trip;
                        sc_source = Src_loop;
                        sc_detail = detail;
                      }
                    | None -> unknown "")
            in
            classes.(site) <- sc
          | _ -> ())
        cfg.Cfg.blocks)
    p.funcs;
  { classes }

(* ---- trace validation ---- *)

module Check = struct
  type violation = { v_site : int; v_message : string }

  type state = {
    ck_classes : site_class array;
    ck_runs : int array;  (** per site: current consecutive stay count *)
    mutable ck_viols : violation list;  (** reversed *)
    mutable ck_n : int;
  }

  let cap = 16

  let start t =
    {
      ck_classes = t.classes;
      ck_runs = Array.make (Array.length t.classes) 0;
      ck_viols = [];
      ck_n = 0;
    }

  let add st v_site fmt =
    Printf.ksprintf
      (fun v_message ->
        st.ck_n <- st.ck_n + 1;
        if st.ck_n <= cap then st.ck_viols <- { v_site; v_message } :: st.ck_viols)
      fmt

  let feed st site outcome =
    match st.ck_classes.(site).sc_cls with
    | Proved_taken -> if not outcome then add st site "proved-taken, observed not-taken"
    | Proved_not_taken -> if outcome then add st site "proved-not-taken, observed taken"
    | Loop_bounded { tr_stay; tr_min; tr_max } ->
      if outcome = tr_stay then begin
        st.ck_runs.(site) <- st.ck_runs.(site) + 1;
        if tr_max < max_int && st.ck_runs.(site) = tr_max + 1 then
          add st site "stay run exceeds the proved maximum of %d trips" tr_max
      end
      else begin
        if st.ck_runs.(site) < tr_min then
          add st site "activation exited after %d stays; proved minimum is %d"
            st.ck_runs.(site) tr_min;
        st.ck_runs.(site) <- 0
      end
    | Unknown -> ()

  let violations st = List.rev st.ck_viols
end
