(* The synth subsystem's contracts:

   - well-formedness: every generated program typechecks, compiles,
     lints clean, and terminates under a modest fuel on every generated
     dataset (qcheck over the parameter space);
   - determinism: the same (params, seed) yields byte-identical MiniC
     source and bit-identical datasets;
   - characterization: metric units on hand-built profiles with known
     entropy/skew, class binning on synthetic count patterns, and the
     inline gshare hook agreeing exactly with a replay of the recorded
     first-dataset trace;
   - sweep: domains=1 and domains=4 render byte-identically, a
     warm-cache rerun reproduces the cold render, and no run writes to
     the trace store. *)

module Gen = Fisher92_synth.Gen
module Charz = Fisher92_synth.Charz
module Sweep = Fisher92_synth.Sweep
module Curated = Fisher92_synth.Curated
module Workload = Fisher92_workloads.Workload
module Registry = Fisher92_workloads.Registry
module Compile = Fisher92_minic.Compile
module Pp = Fisher92_minic.Pp
module Lint = Fisher92_analysis.Lint
module Profile = Fisher92_profile.Profile
module Vm = Fisher92_vm.Vm
module Dynamic = Fisher92_predict.Dynamic
module Heuristic = Fisher92_predict.Heuristic
module Measure = Fisher92_metrics.Measure
module Trace = Fisher92_trace.Trace
module Study = Fisher92.Study
module Tracing = Fisher92.Tracing

(* The suite owns a private trace store, enabled whatever the
   surrounding environment says, so the sweep test can check that
   nothing was written to it. *)
let trace_dir =
  let d = Filename.temp_file "f92synth" ".traces" in
  Sys.remove d;
  Unix.mkdir d 0o700;
  at_exit (fun () -> try Sys.rmdir d with Sys_error _ -> ());
  d

let () =
  Unix.putenv "FISHER92_TRACE_DIR" trace_dir;
  Unix.putenv "FISHER92_NO_TRACE" ""

(* qcheck generator over the parameter space, kept within the sweep's
   own envelope so the property runs fast. *)
let params_gen =
  QCheck2.Gen.(
    let* template = oneofl Gen.all_templates in
    let* bias = int_range 50 99 in
    let* shift = oneofl [ 0; 40; 80; 100 ] in
    let* funcs = int_range 1 4 in
    let* depth = int_range 1 3 in
    let* stmts = int_range 2 12 in
    let* iters = int_range 1 30 in
    let* data_len = oneofl [ 16; 64; 256 ] in
    let* datasets = int_range 2 4 in
    let* arms = int_range 2 8 in
    let* indirect = bool in
    let* early = bool in
    return
      {
        Gen.gp_template = template;
        gp_bias = bias;
        gp_shift = shift;
        gp_funcs = funcs;
        gp_depth = depth;
        gp_stmts = stmts;
        gp_iters = iters;
        gp_data_len = data_len;
        gp_datasets = datasets;
        gp_switch_arms = arms;
        gp_indirect = indirect;
        gp_early_exit = early;
      })

let seeded_gen = QCheck2.Gen.(pair params_gen (int_range 0 1_000_000))

let print_seeded (p, seed) =
  Printf.sprintf "seed=%d %s\n%s" seed (Gen.describe p)
    (Pp.program_to_string (Gen.generate p ~seed).Workload.w_program)

let compile_workload w =
  Compile.compile
    ~options:(Workload.compile_options w)
    w.Workload.w_program

(* Every generated program compiles, lints clean, and terminates within
   a fuel far below the VM default on every generated dataset. *)
let prop_well_formed =
  QCheck2.Test.make ~name:"generated programs are well-formed" ~count:60
    ~print:print_seeded seeded_gen (fun (p, seed) ->
      let w = Gen.generate p ~seed in
      let ir = compile_workload w in
      (match Lint.check ir with
      | [] -> ()
      | findings ->
        QCheck2.Test.fail_reportf "lint findings:\n%s"
          (Lint.render ir findings));
      List.iter
        (fun (ds : Workload.dataset) ->
          let config = { Vm.default_config with fuel = Some 50_000_000 } in
          let result =
            Vm.run ~config ir ~iargs:ds.ds_iargs ~fargs:ds.ds_fargs
              ~arrays:ds.ds_arrays
          in
          if result.Vm.total <= 0 then
            QCheck2.Test.fail_reportf "dataset %s executed no instructions"
              ds.ds_name)
        w.Workload.w_datasets;
      true)

(* Same seed, same params: byte-identical source, identical datasets. *)
let prop_deterministic =
  QCheck2.Test.make ~name:"generation is deterministic" ~count:60
    ~print:print_seeded seeded_gen (fun (p, seed) ->
      let a = Gen.generate p ~seed and b = Gen.generate p ~seed in
      String.equal
        (Pp.program_to_string a.Workload.w_program)
        (Pp.program_to_string b.Workload.w_program)
      && a.Workload.w_datasets = b.Workload.w_datasets)

(* Distinct seeds almost always give distinct programs; pin a sample so
   the generator cannot degenerate into ignoring its seed. *)
let test_seeds_differ () =
  let p = Gen.default_params in
  let src s = Pp.program_to_string (Gen.generate p ~seed:s).Workload.w_program in
  Alcotest.(check bool) "seed 1 <> seed 2" false (String.equal (src 1) (src 2))

let profile_of counts =
  let encountered = Array.map fst counts and taken = Array.map snd counts in
  { Profile.program = "hand"; encountered; taken }

(* Hand-built profiles with known entropy/skew. *)
let test_charz_units () =
  let all_taken = profile_of [| (100, 100); (50, 50) |] in
  let coin = profile_of [| (100, 50) |] in
  let mixed = profile_of [| (80, 80); (20, 10) |] in
  let no_sim n = (Array.make n 0, Array.make n 0) in
  let opin n = Array.make n (Some true) in
  let c1, i1 = no_sim 2 in
  let t = Charz.of_counts ~profile:all_taken ~site_correct:c1 ~site_incorrect:i1 ~opinions:(opin 2) in
  Alcotest.(check (float 1e-9)) "all-taken entropy" 0.0 t.Charz.ch_entropy;
  Alcotest.(check (float 1e-9)) "all-taken skew" 1.0 t.Charz.ch_skew;
  Alcotest.(check (float 1e-9)) "all-taken taken%" 100.0 t.Charz.ch_taken_pct;
  let c2, i2 = no_sim 1 in
  let t = Charz.of_counts ~profile:coin ~site_correct:c2 ~site_incorrect:i2 ~opinions:(opin 1) in
  Alcotest.(check (float 1e-9)) "coin entropy" 1.0 t.Charz.ch_entropy;
  Alcotest.(check (float 1e-9)) "coin skew" 0.0 t.Charz.ch_skew;
  let c3, i3 = no_sim 2 in
  let t = Charz.of_counts ~profile:mixed ~site_correct:c3 ~site_incorrect:i3 ~opinions:(opin 2) in
  (* site 1: rate 1.0, weight 80; site 2: rate 0.5, weight 20 *)
  Alcotest.(check (float 1e-9)) "mixed entropy" 0.2 t.Charz.ch_entropy;
  Alcotest.(check (float 1e-9)) "mixed skew" 0.8 t.Charz.ch_skew

let test_charz_h2p () =
  (* one heavy coin-flip site the (simulated) gshare also misses:
     H2P; one biased site: not *)
  let profile = profile_of [| (3000, 1500); (1000, 990) |] in
  let site_correct = [| 1500; 990 |] and site_incorrect = [| 1500; 10 |] in
  let opinions = [| Some true; None |] in
  let t = Charz.of_counts ~profile ~site_correct ~site_incorrect ~opinions in
  Alcotest.(check int) "h2p sites" 1 t.Charz.ch_h2p_sites;
  Alcotest.(check (float 1e-9)) "h2p share" 0.75 t.Charz.ch_h2p_share;
  Alcotest.(check (float 1e-9)) "heuristic coverage" 75.0 t.Charz.ch_heur_pct;
  Alcotest.(check string) "class" "hard" (Charz.cls_name t.Charz.ch_class)

let test_charz_classes () =
  let mk ?(correct = [||]) ?(incorrect = [||]) counts =
    let profile = profile_of counts in
    let n = Array.length counts in
    let site_correct = if correct = [||] then Array.make n 0 else correct in
    let site_incorrect = if incorrect = [||] then Array.make n 0 else incorrect in
    (Charz.of_counts ~profile ~site_correct ~site_incorrect
       ~opinions:(Array.make n None))
      .Charz.ch_class
  in
  Alcotest.(check string) "monotone" "monotone"
    (Charz.cls_name (mk [| (500, 500); (500, 2) |]));
  Alcotest.(check string) "skewed" "skewed"
    (Charz.cls_name (mk [| (1000, 850) |]));
  (* a coin-flip profile the gshare nevertheless predicts: history *)
  Alcotest.(check string) "history" "history"
    (Charz.cls_name
       (mk [| (1000, 500) |] ~correct:[| 995 |] ~incorrect:[| 5 |]));
  (* a coin-flip profile with no useful simulation: hard *)
  Alcotest.(check string) "hard" "hard"
    (Charz.cls_name
       (mk [| (1000, 500) |] ~correct:[| 500 |] ~incorrect:[| 500 |]))

let small_grid seed = Sweep.grid ~seed ~variants:1 ()

(* [Charz.characterize] runs gshare as the VM's branch hook.  Replaying
   the recorded first-dataset trace through a cold gshare instead must
   characterize every curated pick and grid point identically, floats
   bit for bit. *)
let test_charz_inline_replay () =
  let study =
    Study.load
      ~workloads:(Curated.all () @ Sweep.workloads (small_grid 7))
      ~cache:false ()
  in
  List.iter
    (fun (l : Study.loaded) ->
      let name = l.workload.Workload.w_name in
      let profile =
        Profile.sum (List.map (fun r -> r.Measure.profile) l.runs)
      in
      let trace =
        Tracing.record ~ir:l.ir ~program:name
          (List.hd l.workload.Workload.w_datasets)
      in
      let sim =
        Dynamic.simulate_runs Charz.gshare_scheme
          ~n_sites:(Profile.n_sites profile)
          (Trace.Reader.iter_runs
             (Trace.Reader.of_string (Trace.Writer.render trace)))
      in
      let replayed =
        Charz.of_counts ~profile ~site_correct:(Dynamic.site_correct sim)
          ~site_incorrect:(Dynamic.site_incorrect sim)
          ~opinions:(Heuristic.ball_larus_opinions l.ir)
      in
      let inline = Charz.characterize l in
      let int what f =
        Alcotest.(check int) (name ^ " " ^ what) (f replayed) (f inline)
      in
      let float what f =
        Alcotest.(check (float 0.0))
          (name ^ " " ^ what) (f replayed) (f inline)
      in
      int "sites" (fun c -> c.Charz.ch_sites);
      int "covered" (fun c -> c.Charz.ch_covered);
      int "dyn" (fun c -> c.Charz.ch_dyn);
      float "taken" (fun c -> c.Charz.ch_taken_pct);
      float "skew" (fun c -> c.Charz.ch_skew);
      float "entropy" (fun c -> c.Charz.ch_entropy);
      float "floor" (fun c -> c.Charz.ch_floor_pct);
      int "sim dyn" (fun c -> c.Charz.ch_sim_dyn);
      float "gshare" (fun c -> c.Charz.ch_gshare_pct);
      int "h2p sites" (fun c -> c.Charz.ch_h2p_sites);
      float "h2p share" (fun c -> c.Charz.ch_h2p_share);
      float "heur cov" (fun c -> c.Charz.ch_heur_pct);
      Alcotest.(check string) (name ^ " class")
        (Charz.cls_name replayed.Charz.ch_class)
        (Charz.cls_name inline.Charz.ch_class))
    (Study.items study)

(* The sweep renders identically at domains=1 and domains=4, and a
   second (warm-cache) run reproduces the first byte-for-byte.  None of
   the runs captures a trace, so the suite's enabled store stays
   empty. *)
let test_sweep_determinism () =
  let render domains =
    Sweep.render (Sweep.run ~domains ~items:(small_grid 7) ())
  in
  let one = render 1 in
  Alcotest.(check string) "domains=1 = domains=4" one (render 4);
  Alcotest.(check string) "warm rerun is identical" one (render 2);
  Alcotest.(check (array string)) "no files in the trace store" [||]
    (Sys.readdir trace_dir)

let test_curated_registered () =
  Curated.ensure_registered ();
  let names = List.map (fun w -> w.Workload.w_name) (Registry.extras ()) in
  List.iter
    (fun (w : Workload.t) ->
      Alcotest.(check bool)
        (w.w_name ^ " is registered")
        true
        (List.mem w.w_name names);
      let found = Registry.find w.w_name in
      Alcotest.(check string) "find returns it" w.w_name found.Workload.w_name;
      (* curated workloads obey the same well-formedness contract *)
      let ir = compile_workload w in
      Alcotest.(check int) (w.w_name ^ " lints clean") 0 (List.length (Lint.check ir)))
    (Curated.all ());
  (* the paper roster is not polluted *)
  Alcotest.(check int) "paper roster unchanged" 15 (List.length (Registry.all ()))

let test_registry_extra_clash () =
  Curated.ensure_registered ();
  let w = List.hd (Curated.all ()) in
  Alcotest.check_raises "duplicate extra rejected"
    (Invalid_argument
       (Printf.sprintf "Registry.register_extra: duplicate workload %S"
          w.Workload.w_name))
    (fun () -> Registry.register_extra w)

let () =
  Alcotest.run "synth"
    [
      ( "gen",
        [
          QCheck_alcotest.to_alcotest prop_well_formed;
          QCheck_alcotest.to_alcotest prop_deterministic;
          Alcotest.test_case "seeds differ" `Quick test_seeds_differ;
        ] );
      ( "charz",
        [
          Alcotest.test_case "metric units" `Quick test_charz_units;
          Alcotest.test_case "h2p definition" `Quick test_charz_h2p;
          Alcotest.test_case "class binning" `Quick test_charz_classes;
          Alcotest.test_case "inline gshare = trace replay" `Quick
            test_charz_inline_replay;
        ] );
      ( "sweep",
        [ Alcotest.test_case "deterministic" `Slow test_sweep_determinism ] );
      ( "curated",
        [
          Alcotest.test_case "registered extras" `Quick test_curated_registered;
          Alcotest.test_case "name clash rejected" `Quick test_registry_extra_clash;
        ] );
    ]
