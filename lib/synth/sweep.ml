open Fisher92_util
module Profile = Fisher92_profile.Profile
module Prediction = Fisher92_predict.Prediction
module Heuristic = Fisher92_predict.Heuristic
module Brclass = Fisher92_analysis.Brclass
module Measure = Fisher92_metrics.Measure
module Table = Fisher92_report.Table
module Experiment = Fisher92.Experiment
module Study = Fisher92.Study

type point = { pt_name : string; pt_params : Gen.params; pt_seed : int }

let default_seed = 42

let biases = [ 55; 80; 95 ]
let shifts = [ 0; 80 ]

let grid ?(variants = 5) ~seed () =
  let idx = ref 0 in
  List.concat_map
    (fun template ->
      List.concat_map
        (fun bias ->
          List.concat_map
            (fun shift ->
              List.init variants (fun v ->
                  let k = !idx in
                  incr idx;
                  let params =
                    {
                      Gen.gp_template = template;
                      gp_bias = bias;
                      gp_shift = shift;
                      gp_funcs = 1 + (v mod 3);
                      gp_depth = 1 + ((v + 1) mod 3);
                      gp_stmts = 6 + (2 * (v mod 3));
                      gp_iters = 40 + (10 * (v mod 3));
                      gp_data_len = 256;
                      gp_datasets = 2 + (v mod 2);
                      gp_switch_arms = 3 + (v mod 4);
                      gp_indirect = v mod 2 = 0;
                      gp_early_exit = v mod 3 <> 1;
                    }
                  in
                  {
                    pt_name =
                      Printf.sprintf "syn-%s-b%02d-s%02d-v%d"
                        (Gen.template_name template) bias shift v;
                    pt_params = params;
                    pt_seed = (seed * 1_000_003) + (k * 8191) + 17;
                  }))
            shifts)
        biases)
    Gen.all_templates

let workload pt = Gen.generate ~name:pt.pt_name pt.pt_params ~seed:pt.pt_seed
let workloads points = List.map workload points

type item = {
  it_point : point;
  it_charz : Charz.t;
  it_self_mr : float;
  it_cross_mr : float;
  it_heur_mr : float;
  it_proved : int;
}

(* Measure one loaded workload: characterization plus the static
   predictor roster.  Cross-dataset prediction is leave-one-out — each
   dataset predicted from the union of every other dataset's profile,
   the strongest profile a deployment could actually have had. *)
let measure pt (loaded : Study.loaded) =
  let opinions = Heuristic.ball_larus_opinions loaded.Study.ir in
  let charz = Charz.characterize ~opinions loaded in
  let profiles = List.map (fun r -> r.Measure.profile) loaded.Study.runs in
  let total =
    List.fold_left (fun a p -> a + Profile.total_branches p) 0 profiles
  in
  let self_miss =
    List.fold_left (fun a p -> a + Profile.best_mispredicts p) 0 profiles
  in
  let cross_miss =
    List.mapi
      (fun d p ->
        match List.filteri (fun d' _ -> d' <> d) profiles with
        | [] -> Profile.best_mispredicts p
        | others ->
          Profile.mispredicts
            ~prediction:(Prediction.of_profile (Profile.sum others))
            p)
      profiles
    |> List.fold_left ( + ) 0
  in
  (* [Heuristic.ball_larus], from the opinions already in hand *)
  let heur = Array.map (Option.value ~default:false) opinions in
  let heur_miss =
    List.fold_left (fun a p -> a + Profile.mispredicts ~prediction:heur p) 0 profiles
  in
  let pt_, pnt, lb, _unknown = Brclass.counts (Brclass.classify loaded.Study.ir) in
  {
    it_point = pt;
    it_charz = charz;
    it_self_mr = Stats.percent self_miss total;
    it_cross_mr = Stats.percent cross_miss total;
    it_heur_mr = Stats.percent heur_miss total;
    it_proved = pt_ + pnt + lb;
  }

(* One task per grid point, on one domain from generation to
   measurement: the pool fans out once and merges by index, and the
   point's study load runs inline ([~domains:1] spawns nothing). *)
let run ?domains ?cache ?items () =
  let points = match items with Some p -> p | None -> grid ~seed:default_seed () in
  Pool.map ?domains
    (fun pt ->
      match
        Study.items (Study.load ~workloads:[ workload pt ] ~domains:1 ?cache ())
      with
      | [ loaded ] -> measure pt loaded
      | _ -> invalid_arg "Sweep.run: study did not load the grid point")
    points

type class_row = {
  cr_class : Charz.cls;
  cr_count : int;
  cr_entropy : float;
  cr_h2p : float;
  cr_self : float;
  cr_cross : float;
  cr_heur : float;
}

let class_rows items =
  List.filter_map
    (fun cls ->
      match
        List.filter (fun it -> it.it_charz.Charz.ch_class = cls) items
      with
      | [] -> None
      | members ->
        Some
          {
            cr_class = cls;
            cr_count = List.length members;
            cr_entropy =
              Stats.mean (List.map (fun it -> it.it_charz.Charz.ch_entropy) members);
            cr_h2p =
              Stats.mean (List.map (fun it -> it.it_charz.Charz.ch_h2p_share) members);
            cr_self = Stats.geomean (List.map (fun it -> it.it_self_mr) members);
            cr_cross = Stats.geomean (List.map (fun it -> it.it_cross_mr) members);
            cr_heur = Stats.geomean (List.map (fun it -> it.it_heur_mr) members);
          })
    Charz.all_classes

(* How badly cross-dataset profile prediction does relative to the
   run's own floor; the 0.05 guard keeps a zero-floor workload from
   dividing to infinity while still ranking it by its cross rate. *)
let cross_penalty it = it.it_cross_mr /. Float.max it.it_self_mr 0.05

let failure_tail ?(n = 8) items =
  let ranked =
    List.sort
      (fun a b ->
        match compare (cross_penalty b) (cross_penalty a) with
        | 0 -> (
          match compare b.it_cross_mr a.it_cross_mr with
          | 0 -> compare a.it_point.pt_name b.it_point.pt_name
          | c -> c)
        | c -> c)
      items
  in
  List.filteri (fun k _ -> k < n) ranked

let f3 x = Table.Fmt (Printf.sprintf "%.3f", x)

let class_columns =
  Table.
    [
      text_col "CLASS" (fun r -> Str (Charz.cls_name r.cr_class));
      text_col "PROGRAMS" (fun r -> Int r.cr_count);
      text_col "ENTROPY" (fun r -> f3 r.cr_entropy);
      text_col "H2P-SHR" (fun r -> f3 r.cr_h2p);
      text_col "SELF-MR" (fun r -> Pct r.cr_self);
      text_col "CROSS-MR" (fun r -> Pct r.cr_cross);
      text_col "HEUR-MR" (fun r -> Pct r.cr_heur);
      text_col "CROSS/SELF" (fun r ->
          Fmt
            ( Printf.sprintf "%.2fx",
              if r.cr_self > 0.0 then r.cr_cross /. r.cr_self else 0.0 ));
    ]

let tail_columns =
  Table.
    [
      text_col "PROGRAM" (fun it -> Str it.it_point.pt_name);
      text_col "CLASS" (fun it ->
          Str (Charz.cls_name it.it_charz.Charz.ch_class));
      text_col "SELF-MR" (fun it -> Pct it.it_self_mr);
      text_col "CROSS-MR" (fun it -> Pct it.it_cross_mr);
      text_col "HEUR-MR" (fun it -> Pct it.it_heur_mr);
      text_col "ENTROPY" (fun it -> f3 it.it_charz.Charz.ch_entropy);
      text_col "H2P-SHR" (fun it -> f3 it.it_charz.Charz.ch_h2p_share);
    ]

let render items =
  let classes = class_rows items in
  let dyn =
    List.fold_left (fun a it -> a + it.it_charz.Charz.ch_dyn) 0 items
  in
  Printf.sprintf
    "Synthetic workload pool: %d generated workloads (%s dynamic branches)\n\
     binned into %d predictability classes; cross-dataset profile\n\
     prediction vs the run's own floor and the Ball-Larus heuristics\n"
    (List.length items) (Table.inum dyn) (List.length classes)
  ^ Table.text class_columns classes
  ^ "\nFailure tail: where prediction from the other datasets' profiles\n\
     does worst against the run's own floor — the region the paper's\n\
     hand-picked sample could not see\n"
  ^ Table.text tail_columns (failure_tail items)

let columns =
  let params it = it.it_point.pt_params and charz it = it.it_charz in
  Table.
    [
      tsv_col "program" (fun it -> Str it.it_point.pt_name);
      tsv_col "template" (fun it ->
          Str (Gen.template_name (params it).Gen.gp_template));
      tsv_col "bias" (fun it -> Int (params it).Gen.gp_bias);
      tsv_col "shift" (fun it -> Int (params it).Gen.gp_shift);
      tsv_col "seed" (fun it -> Int it.it_point.pt_seed);
      tsv_col "class" (fun it ->
          Str (Charz.cls_name (charz it).Charz.ch_class));
      tsv_col "sites" (fun it -> Int (charz it).Charz.ch_sites);
      tsv_col "covered" (fun it -> Int (charz it).Charz.ch_covered);
      tsv_col "dyn" (fun it -> Int (charz it).Charz.ch_dyn);
      tsv_col "entropy" (fun it -> Num (3, (charz it).Charz.ch_entropy));
      tsv_col "skew" (fun it -> Num (3, (charz it).Charz.ch_skew));
      tsv_col "floor_pct" (fun it -> Pct (charz it).Charz.ch_floor_pct);
      tsv_col "gshare_pct" (fun it -> Pct (charz it).Charz.ch_gshare_pct);
      tsv_col "h2p_share" (fun it -> Num (3, (charz it).Charz.ch_h2p_share));
      tsv_col "heur_cov_pct" (fun it -> Pct (charz it).Charz.ch_heur_pct);
      tsv_col "self_mr" (fun it -> Pct it.it_self_mr);
      tsv_col "cross_mr" (fun it -> Pct it.it_cross_mr);
      tsv_col "heur_mr" (fun it -> Pct it.it_heur_mr);
      tsv_col "proved_sites" (fun it -> Int it.it_proved);
    ]

let () =
  Experiment.register
    (Experiment.make ~id:"synthpool" ~paper:"extension"
       ~descr:"synthetic pool: per-class cross-dataset miss rates + failure tail"
       ~text:render ~columns
       (fun _study -> run ()))

let registry () =
  Curated.ensure_registered ();
  (* referencing the core module forces its registrations to have run
     (they already have: fisher92 initializes before fisher92_synth) *)
  Fisher92.Experiments.registry ()
