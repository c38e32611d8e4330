(* The static branch-proof pass: SCCP, value ranges, the per-site
   classifier, and the headline soundness gate — every stored trace of
   every workload x dataset replayed against the classification, with
   zero contradictions tolerated.  A [Proved_*] or [Loop_bounded]
   verdict is a theorem; one counterexample event is a bug in the
   analysis, never in the program. *)

module Insn = Fisher92_ir.Insn
module Program = Fisher92_ir.Program
module Vm = Fisher92_vm.Vm
module Cfg = Fisher92_analysis.Cfg
module Dom = Fisher92_analysis.Dom
module Loops = Fisher92_analysis.Loops
module Sccp = Fisher92_analysis.Sccp
module Range = Fisher92_analysis.Range
module Brclass = Fisher92_analysis.Brclass
module Profile = Fisher92_profile.Profile
module Workload = Fisher92_workloads.Workload
module Gen = QCheck2.Gen

(* Same single-function wrapper as test_analysis.ml. *)
let mkprog ?(n_iparams = 0) ?(n_iregs = 8) ?(n_fregs = 0) code =
  let code = Array.of_list code in
  let f =
    { Program.fname = "f"; n_iparams; n_fparams = 0; n_iregs; n_fregs; code }
  in
  let sites = ref [] in
  Array.iteri
    (fun pc insn ->
      match Insn.branch_site insn with
      | Some s ->
        sites := (s, { Program.s_func = 0; s_pc = pc; s_label = "s" }) :: !sites
      | None -> ())
    code;
  let sites = List.sort compare !sites |> List.map snd |> Array.of_list in
  {
    Program.pname = "hand";
    funcs = [| f |];
    arrays = [||];
    func_table = [||];
    entry = 0;
    sites;
  }

let cls p s = (Brclass.classify p).Brclass.classes.(s)

let sccp (p : Program.t) = Sccp.analyze p (Array.map Cfg.build p.funcs)

(* ---------- SCCP ---------- *)

(* A constant guard, and a second branch whose condition is constant
   only because SCCP refuses to propagate through the infeasible fall
   edge of the first: the "conditional" in sparse conditional constant
   propagation. *)
let const_chain =
  mkprog
    [
      Insn.Iconst (0, 1);
      Insn.Br { cond = 0; target = 3; site = 0 };
      Insn.Iconst (1, 5);
      (* dead: r1 keeps its zero-init *)
      Insn.Iconst (2, 0);
      Insn.Icmp (Insn.Eq, 3, 1, 2);
      Insn.Br { cond = 3; target = 7; site = 1 };
      Insn.Halt;
      Insn.Halt;
    ]

let test_sccp_fates () =
  let r = sccp const_chain in
  Alcotest.(check string) "site 0" "always-taken" (Sccp.fate_name r.Sccp.fates.(0));
  Alcotest.(check string)
    "site 1 (needs edge feasibility)" "always-taken"
    (Sccp.fate_name r.Sccp.fates.(1));
  Alcotest.(check (option int)) "cond const" (Some 1) r.Sccp.cond_const.(1)

let test_sccp_not_taken () =
  let p =
    mkprog
      [
        Insn.Iconst (0, 0); Insn.Br { cond = 0; target = 3; site = 0 };
        Insn.Halt; Insn.Halt;
      ]
  in
  let r = sccp p in
  Alcotest.(check string) "never taken" "always-not-taken"
    (Sccp.fate_name r.Sccp.fates.(0));
  match cls p 0 with
  | { sc_cls = Brclass.Proved_not_taken; sc_source = Brclass.Src_const; _ } -> ()
  | sc -> Alcotest.failf "expected proved-not-taken/const, got %s"
            (Brclass.cls_name sc.sc_cls)

(* A data-dependent branch must stay unproved: the entry parameter is
   bottom. *)
let test_sccp_param_unknown () =
  let p =
    mkprog ~n_iparams:1
      [
        Insn.Br { cond = 0; target = 2; site = 0 }; Insn.Halt; Insn.Halt;
      ]
  in
  let r = sccp p in
  Alcotest.(check string) "both" "both" (Sccp.fate_name r.Sccp.fates.(0))

(* Float compares fold with the VM's IEEE semantics: a NaN constant is
   unequal to itself, so [Fcmp Eq] folds to 0 and [Fcmp Ne] to 1. *)
let test_sccp_nan () =
  let p =
    mkprog ~n_fregs:1
      [
        Insn.Fconst (0, Float.nan);
        Insn.Fcmp (Insn.Eq, 0, 0, 0);
        Insn.Br { cond = 0; target = 6; site = 0 };
        Insn.Fcmp (Insn.Ne, 1, 0, 0);
        Insn.Br { cond = 1; target = 7; site = 1 };
        Insn.Halt;
        Insn.Halt;
        Insn.Halt;
      ]
  in
  let r = sccp p in
  Alcotest.(check string) "nan = nan folds to 0" "always-not-taken"
    (Sccp.fate_name r.Sccp.fates.(0));
  Alcotest.(check (option int)) "eq constant" (Some 0) r.Sccp.cond_const.(0);
  Alcotest.(check string) "nan <> nan folds to 1" "always-taken"
    (Sccp.fate_name r.Sccp.fates.(1));
  Alcotest.(check (option int)) "ne constant" (Some 1) r.Sccp.cond_const.(1);
  let vm = Vm.run p ~iargs:[] ~fargs:[] ~arrays:[] in
  Alcotest.(check (array int)) "the VM agrees" [| 0; 1 |] vm.Vm.site_taken

(* ---------- interval algebra ---------- *)

let test_interval_ops () =
  let open Range in
  Alcotest.(check string) "join" "[0, 7]"
    (to_string (join (const 0) (const 7)));
  Alcotest.(check bool) "inter empty" true
    (inter (const 1) (const 2) = None);
  Alcotest.(check bool) "mem" true (mem 3 { lo = 0; hi = 5 });
  Alcotest.(check string) "top renders with sentinels" "[-inf, +inf]"
    (to_string top);
  Alcotest.(check (option int)) "point interval" (Some 4) (is_const (const 4))

(* ---------- range proofs ---------- *)

(* An unknown parameter guarded twice by the same relation: the second
   compare is decided by the refinement the first branch's taken edge
   carries. *)
let guarded_twice =
  mkprog ~n_iparams:1
    [
      Insn.Iconst (2, 0);
      Insn.Icmp (Insn.Ge, 1, 0, 2);
      Insn.Br { cond = 1; target = 4; site = 0 };
      Insn.Halt;
      Insn.Icmp (Insn.Ge, 3, 0, 2);
      Insn.Br { cond = 3; target = 7; site = 1 };
      Insn.Halt;
      Insn.Halt;
    ]

let test_range_guard_refinement () =
  (match cls guarded_twice 0 with
  | { sc_cls = Brclass.Unknown; _ } -> ()
  | sc -> Alcotest.failf "site 0 should be unknown, got %s"
            (Brclass.cls_name sc.sc_cls));
  match cls guarded_twice 1 with
  | { sc_cls = Brclass.Proved_taken; sc_source = Brclass.Src_range; _ } -> ()
  | sc -> Alcotest.failf "site 1 should be proved-taken/range, got %s (%s)"
            (Brclass.cls_name sc.sc_cls) sc.sc_detail

(* ---------- counted loops ---------- *)

(* The lowered rotated-loop shape:
     0: i <- init            (B0)
     1: jump 4
     2: junk                 (B1, loop body)
     3: i <- i + step
     4: bound <- n           (B2, header: test at the bottom)
     5: r2 <- i < bound
     6: br r2 -> 2           taken stays, fall exits
     7: halt                 (B3)                                     *)
let counted_loop ~init ~bound ~step ~cmp =
  mkprog
    [
      Insn.Iconst (0, init);
      Insn.Jump 4;
      Insn.Iconst (3, 7);
      Insn.Ibini (Insn.Add, 0, 0, step);
      Insn.Iconst (1, bound);
      Insn.Icmp (cmp, 2, 0, 1);
      Insn.Br { cond = 2; target = 2; site = 0 };
      Insn.Halt;
    ]

let expected_trips ~init ~bound ~step ~cmp =
  let stays = ref 0 and i = ref init in
  let holds () =
    match cmp with
    | Insn.Lt -> !i < bound
    | Insn.Le -> !i <= bound
    | Insn.Gt -> !i > bound
    | Insn.Ge -> !i >= bound
    | Insn.Eq -> !i = bound
    | Insn.Ne -> !i <> bound
  in
  while holds () do
    incr stays;
    i := !i + step
  done;
  !stays

let test_loop_bounded_exact () =
  let p = counted_loop ~init:0 ~bound:10 ~step:1 ~cmp:Insn.Lt in
  match cls p 0 with
  | { sc_cls = Brclass.Loop_bounded { tr_stay; tr_min; tr_max }; _ } ->
    Alcotest.(check bool) "stays on taken" true tr_stay;
    Alcotest.(check int) "min trips" 10 tr_min;
    Alcotest.(check int) "max trips" 10 tr_max
  | sc -> Alcotest.failf "expected loop-bounded, got %s (%s)"
            (Brclass.cls_name sc.sc_cls) sc.sc_detail

(* The classifier must abstain when the loop has a second exit: stay
   runs could span activations and overshoot any per-activation bound.
   The break condition is a parameter (r4), so nothing proves the break
   away statically. *)
let test_loop_second_exit_abstains () =
  let p =
    mkprog ~n_iparams:5
      [
        Insn.Iconst (0, 0);
        Insn.Jump 5;
        Insn.Iconst (3, 7);
        Insn.Br { cond = 4; target = 9; site = 0 };
        (* break *)
        Insn.Ibini (Insn.Add, 0, 0, 1);
        Insn.Iconst (1, 10);
        Insn.Icmp (Insn.Lt, 2, 0, 1);
        Insn.Br { cond = 2; target = 2; site = 1 };
        Insn.Halt;
        Insn.Halt;
      ]
  in
  match cls p 1 with
  | { sc_cls = Brclass.Loop_bounded _; sc_detail; _ } ->
    Alcotest.failf "multi-exit loop must not be bounded (%s)" sc_detail
  | _ -> ()

let run_and_check p =
  let classes = Brclass.classify p in
  let st = Brclass.Check.start classes in
  let config =
    { Vm.default_config with on_branch = Some (Brclass.Check.feed st) }
  in
  let r = Vm.run ~config p ~iargs:[] ~fargs:[] ~arrays:[] in
  (classes, st, r)

let test_loop_check_against_vm () =
  let p = counted_loop ~init:3 ~bound:11 ~step:2 ~cmp:Insn.Le in
  let _, st, r = run_and_check p in
  Alcotest.(check (list string)) "no violations" []
    (List.map (fun v -> v.Brclass.Check.v_message) (Brclass.Check.violations st));
  Alcotest.(check int) "stays observed" (expected_trips ~init:3 ~bound:11 ~step:2 ~cmp:Insn.Le)
    r.Vm.site_taken.(0)

(* Random counted loops: the classification must be sound against the
   run, and when the trip interval is a point it must equal the observed
   stay count exactly. *)
let prop_counted_loop =
  QCheck2.Test.make ~name:"counted loop trip bounds are sound and tight"
    ~count:200
    Gen.(
      quad (int_range (-6) 6) (int_range (-6) 20) (int_range 1 3)
        (oneofl [ Insn.Lt; Insn.Le; Insn.Gt; Insn.Ge ]))
    (fun (init, bound, step, cmp) ->
      let step =
        match cmp with Insn.Gt | Insn.Ge -> -step | _ -> step
      in
      let p = counted_loop ~init ~bound ~step ~cmp in
      let _, st, r = run_and_check p in
      let expected = expected_trips ~init ~bound ~step ~cmp in
      (match Brclass.Check.violations st with
      | [] -> ()
      | v :: _ ->
        QCheck2.Test.fail_reportf "violation: site %d: %s"
          v.Brclass.Check.v_site v.Brclass.Check.v_message);
      (match (cls p 0).Brclass.sc_cls with
      (* a loop that never runs is proved never-taken outright *)
      | Brclass.Proved_not_taken when expected = 0 -> ()
      | Brclass.Loop_bounded { tr_min; tr_max; tr_stay } ->
        if not tr_stay then QCheck2.Test.fail_report "stay must be taken";
        if tr_min <> expected || tr_max <> expected then
          QCheck2.Test.fail_reportf "trips [%d, %d], executed %d" tr_min
            tr_max expected
      | c ->
        (* constant init and bound: the classifier must decide this *)
        QCheck2.Test.fail_reportf "expected a decided class for %d runs, got %s"
          expected (Brclass.cls_name c));
      Alcotest.(check int) "stays" expected r.Vm.site_taken.(0);
      true)

(* ---------- the Check module itself ---------- *)

let hand_classes cls_list =
  {
    Brclass.classes =
      Array.of_list
        (List.map
           (fun c ->
             { Brclass.sc_cls = c; sc_source = Brclass.Src_none; sc_detail = "" })
           cls_list);
  }

let test_check_flags_contradictions () =
  let t =
    hand_classes
      [
        Brclass.Proved_taken;
        Brclass.Loop_bounded { tr_stay = true; tr_min = 2; tr_max = 3 };
      ]
  in
  let st = Brclass.Check.start t in
  Brclass.Check.feed st 0 false;
  (* proved-taken contradicted *)
  Brclass.Check.feed st 1 true;
  Brclass.Check.feed st 1 false;
  (* run of 1 < min 2 *)
  List.iter (fun _ -> Brclass.Check.feed st 1 true) [ 1; 2; 3; 4 ];
  (* run of 4 > max 3 *)
  Alcotest.(check int) "three violations" 3
    (List.length (Brclass.Check.violations st));
  let st2 = Brclass.Check.start t in
  Brclass.Check.feed st2 0 true;
  List.iter (fun _ -> Brclass.Check.feed st2 1 true) [ 1; 2; 3 ];
  Brclass.Check.feed st2 1 false;
  Alcotest.(check int) "clean stream" 0
    (List.length (Brclass.Check.violations st2))

(* ---------- folding proved branches ---------- *)

(* A proved-taken guard in front of an observable counted loop: folding
   must delete the guard's site and the stranded arm without changing
   the output stream. *)
let foldable =
  mkprog
    [
      Insn.Iconst (0, 1);
      Insn.Br { cond = 0; target = 3; site = 0 };
      Insn.Halt;
      Insn.Iconst (1, 0);
      Insn.Jump 7;
      Insn.Output 1;
      Insn.Ibini (Insn.Add, 1, 1, 1);
      Insn.Iconst (2, 5);
      Insn.Icmp (Insn.Lt, 3, 1, 2);
      Insn.Br { cond = 3; target = 5; site = 1 };
      Insn.Output 0;
      Insn.Halt;
    ]

let test_fold_proved () =
  let module Simplify = Fisher92_analysis.Simplify in
  let folded = Simplify.fold_proved foldable in
  Alcotest.(check int) "guard site deleted" 1 (Program.n_sites folded);
  let out p = (Vm.run p ~iargs:[] ~fargs:[] ~arrays:[]).Vm.outputs in
  Alcotest.(check bool) "same output stream" true (out foldable = out folded);
  (match cls folded 0 with
  | { sc_cls = Brclass.Loop_bounded _; _ } -> ()
  | _ -> Alcotest.fail "surviving site keeps its loop bound");
  (* nothing proved (only a loop bound): fold must be the identity *)
  let p = counted_loop ~init:0 ~bound:10 ~step:1 ~cmp:Insn.Lt in
  Alcotest.(check bool) "identity without proofs" true
    (Simplify.fold_proved p == p)

let test_compile_prove_fold () =
  let module Compile = Fisher92_minic.Compile in
  let module T = Fisher92_testsupport.Testsupport in
  let plain = T.compile T.sample_program in
  let folded =
    T.compile
      ~options:{ Compile.default_options with prove_fold = true }
      T.sample_program
  in
  let out ir = (T.run_vm ~iargs:[ 6 ] ir).Vm.outputs in
  Alcotest.(check bool) "same output stream" true (out plain = out folded)

(* ---------- pinned fixpoint: golden/proof_fixpoint.txt ---------- *)

(* No registry workload or grid point has a proved verdict, so the
   verdicts alone pin little of the proof pass.  The golden pins its
   whole fixpoint instead: per program, a digest of every site's SCCP
   fate and constant, every block's range entry environment and edge
   environments, and every site's verdict in full.  Regenerate (only on
   an intended change to the analyses) with

     dune exec test/test_proof.exe -- capture-fixpoint \
       test/golden/proof_fixpoint.txt *)

let builds ws =
  List.map
    (fun (w : Workload.t) -> (w.w_name, Fisher92.Study.compile_variant w))
    ws

(* The 120-point seed-42 grid, in its measured builds. *)
let grid_builds =
  lazy
    (builds
       (Fisher92_synth.Sweep.workloads
          (Fisher92_synth.Sweep.grid ~variants:5 ~seed:42 ())))

(* The registry, the curated picks and the grid. *)
let fixpoint_corpus =
  lazy
    (builds
       (Fisher92_workloads.Registry.all () @ Fisher92_synth.Curated.all ())
    @ Lazy.force grid_builds)

let source_name = function
  | Brclass.Src_const -> "const"
  | Brclass.Src_range -> "range"
  | Brclass.Src_loop -> "loop"
  | Brclass.Src_none -> "none"

let fixpoint_digest (p : Program.t) =
  let b = Buffer.create 4096 in
  let env e =
    Array.iter (fun i -> Printf.bprintf b " %s" (Range.to_string i)) e
  in
  let r = sccp p in
  Array.iteri
    (fun s fate ->
      Printf.bprintf b "s%d %s %s\n" s (Sccp.fate_name fate)
        (match r.Sccp.cond_const.(s) with
        | Some v -> string_of_int v
        | None -> "-"))
    r.Sccp.fates;
  Array.iteri
    (fun fid (f : Program.func) ->
      let cfg = Cfg.build f in
      let dom = Dom.compute cfg in
      let rng = Range.analyze f cfg dom (Loops.compute cfg dom) in
      Array.iter
        (fun (blk : Cfg.block) ->
          Printf.bprintf b "f%d b%d" fid blk.b_id;
          if Range.executable rng blk.b_id then begin
            Buffer.add_string b " in";
            env (Range.env_at rng ~pc:blk.b_start)
          end;
          List.iter
            (fun s ->
              Printf.bprintf b " ->%d" s;
              match Range.edge_env rng blk.b_id s with
              | None -> Buffer.add_string b " none"
              | Some e -> env e)
            blk.b_succs;
          Buffer.add_char b '\n')
        cfg.Cfg.blocks)
    p.funcs;
  Array.iteri
    (fun s (sc : Brclass.site_class) ->
      Printf.bprintf b "v%d %s %s %s %s\n" s
        (Brclass.cls_name sc.sc_cls)
        (match sc.sc_cls with
        | Brclass.Loop_bounded { tr_stay; tr_min; tr_max } ->
          Printf.sprintf "%b/%d/%d" tr_stay tr_min tr_max
        | _ -> "-")
        (source_name sc.sc_source) sc.sc_detail)
    (Brclass.classify p).Brclass.classes;
  Fisher92_util.Fnv.hex (Buffer.contents b)

let render_fixpoints () =
  String.concat ""
    (List.map
       (fun (name, ir) ->
         Printf.sprintf "%s %d %s\n" name (Program.n_sites ir)
           (fixpoint_digest ir))
       (Lazy.force fixpoint_corpus))

let test_fixpoint_golden () =
  let ic = open_in_bin (Filename.concat "golden" "proof_fixpoint.txt") in
  let expected = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Alcotest.(check string) "fixpoint matches the golden" expected
    (render_fixpoints ())

(* ---------- allocation budget ---------- *)

(* Minor words [Brclass.classify] allocates per IR instruction over the
   grid, on this domain (OCaml 5 counts them exactly per domain).  The
   range fixpoint on flat environments, CFGs shared with SCCP and
   int-typed loop helpers measure 168; boxed environments with a
   per-edge table measured 621, and 581 beside the other two changes.
   The bound sits a little above the measurement.  The group is named
   [alloc], not [budget]: Alcotest pads every group to the longest
   name, and one more column would cut the qcheck loop property's name
   short in the report. *)
let test_classify_allocation () =
  let irs = List.map snd (Lazy.force grid_builds) in
  let insns =
    List.fold_left
      (fun n (p : Program.t) ->
        Array.fold_left
          (fun n (f : Program.func) -> n + Array.length f.code)
          n p.funcs)
      0 irs
  in
  let w0 = Gc.minor_words () in
  List.iter (fun p -> ignore (Sys.opaque_identity (Brclass.classify p))) irs;
  let per_insn = (Gc.minor_words () -. w0) /. float_of_int insns in
  if per_insn > 184.0 then
    Alcotest.failf
      "Brclass.classify: %.0f words per IR instruction (want <= 184)" per_insn

(* ---------- the headline gate ---------- *)

let study =
  lazy (Fisher92.Study.load ())

(* Every stored trace of every workload x dataset, replayed against the
   static classification: zero contradictions, across the whole pool. *)
let test_soundness_gate () =
  let study = Lazy.force study in
  let checked = ref 0 and events = ref 0 in
  List.iter
    (fun (l : Fisher92.Study.loaded) ->
      let classes = Brclass.classify l.ir in
      List.iter
        (fun (d : Workload.dataset) ->
          let obtained =
            Fisher92.Tracing.obtain ~ir:l.ir ~program:l.workload.w_name d
          in
          let st = Brclass.Check.start classes in
          Fisher92_trace.Trace.Reader.iter obtained.reader (fun site taken ->
              incr events;
              Brclass.Check.feed st site taken);
          (match Brclass.Check.violations st with
          | [] -> ()
          | v :: _ ->
            Alcotest.failf "%s/%s: site %d: %s" l.workload.w_name d.ds_name
              v.Brclass.Check.v_site v.Brclass.Check.v_message);
          incr checked)
        l.workload.w_datasets)
    (Fisher92.Study.items study);
  Alcotest.(check bool) "checked every pair" true (!checked >= 15);
  Alcotest.(check bool) "replayed real events" true (!events > 0)

(* Proofs must also pay their way: filling unprofiled sites with proved
   directions can never mispredict more than the profile-alone default,
   on any workload (cross-dataset prediction, the paper's scenario). *)
let test_proof_tier_never_hurts () =
  let study = Lazy.force study in
  List.iter
    (fun (l : Fisher92.Study.loaded) ->
      let classes = Brclass.classify l.ir in
      let n = Program.n_sites l.ir in
      let profiles =
        List.map (fun (r : Fisher92_metrics.Measure.run) -> r.profile) l.runs
      in
      let mr_alone = ref 0 and mr_proof = ref 0 in
      List.iteri
        (fun i target ->
          let others = List.filteri (fun j _ -> j <> i) profiles in
          let majority s =
            match others with
            | [] -> None
            | ps -> Profile.majority_taken (Profile.sum ps) s
          in
          let alone =
            Array.init n (fun s ->
                match majority s with Some dir -> dir | None -> false)
          in
          let proofed =
            Array.init n (fun s ->
                match majority s with
                | Some dir -> dir
                | None -> (
                  match
                    Brclass.predicted_direction classes.Brclass.classes.(s).sc_cls
                  with
                  | Some dir -> dir
                  | None -> false))
          in
          mr_alone := !mr_alone + Profile.mispredicts ~prediction:alone target;
          mr_proof := !mr_proof + Profile.mispredicts ~prediction:proofed target)
        profiles;
      if !mr_proof > !mr_alone then
        Alcotest.failf "%s: proof+profile mispredicts %d > profile-alone %d"
          l.workload.w_name !mr_proof !mr_alone)
    (Fisher92.Study.items study)

(* The remap degradation chain: on a siteless database the proof tier
   sits between remapped counters and the heuristics. *)
let test_remap_proof_tier () =
  let module Remap = Fisher92_predict.Remap in
  let module Db = Fisher92_profile.Db in
  let p = counted_loop ~init:0 ~bound:10 ~step:1 ~cmp:Insn.Lt in
  let db = Db.create ~program:"hand" ~n_sites:99 in
  (* wrong shape, no keys: nothing exact or remapped survives *)
  let plan = Remap.plan p db in
  let _, _, proof, _, _ = Remap.counts plan in
  Alcotest.(check int) "loop site proved" 1 proof;
  Alcotest.(check bool) "predicts stay" true plan.Remap.r_prediction.(0);
  Alcotest.(check bool) "tagged proof" true
    (plan.Remap.r_provenance.(0) = Remap.Proof)

let () =
  match Sys.argv with
  | [| _; "capture-fixpoint"; path |] ->
    Out_channel.with_open_bin path (fun oc ->
        output_string oc (render_fixpoints ()))
  | _ ->
  Alcotest.run "proof"
    [
      ( "sccp",
        [
          Alcotest.test_case "constant chain" `Quick test_sccp_fates;
          Alcotest.test_case "not-taken" `Quick test_sccp_not_taken;
          Alcotest.test_case "param unknown" `Quick test_sccp_param_unknown;
          Alcotest.test_case "nan compares" `Quick test_sccp_nan;
        ] );
      ( "range",
        [
          Alcotest.test_case "interval ops" `Quick test_interval_ops;
          Alcotest.test_case "guard refinement" `Quick
            test_range_guard_refinement;
          Alcotest.test_case "fixpoint unchanged" `Quick test_fixpoint_golden;
        ] );
      ( "loops",
        [
          Alcotest.test_case "exact bounds" `Quick test_loop_bounded_exact;
          Alcotest.test_case "second exit abstains" `Quick
            test_loop_second_exit_abstains;
          Alcotest.test_case "check vs vm" `Quick test_loop_check_against_vm;
          QCheck_alcotest.to_alcotest prop_counted_loop;
        ] );
      ( "check",
        [
          Alcotest.test_case "flags contradictions" `Quick
            test_check_flags_contradictions;
        ] );
      ( "fold",
        [
          Alcotest.test_case "fold_proved" `Quick test_fold_proved;
          Alcotest.test_case "compile --prove-fold" `Quick
            test_compile_prove_fold;
        ] );
      ( "alloc",
        [
          Alcotest.test_case "Brclass.classify words" `Quick
            test_classify_allocation;
        ] );
      ( "gate",
        [
          Alcotest.test_case "all traces, zero contradictions" `Slow
            test_soundness_gate;
          Alcotest.test_case "proof tier never hurts" `Slow
            test_proof_tier_never_hurts;
          Alcotest.test_case "remap proof tier" `Quick test_remap_proof_tier;
        ] );
    ]
