module Workload = Fisher92_workloads.Workload
module Registry = Fisher92_workloads.Registry
module Measure = Fisher92_metrics.Measure
module Cross = Fisher92_metrics.Cross
module Breaks = Fisher92_metrics.Breaks
module Prediction = Fisher92_predict.Prediction
module Dynamic = Fisher92_predict.Dynamic
module Remap = Fisher92_predict.Remap
module Predictor = Fisher92_predict.Predictor
module Fingerprint = Fisher92_analysis.Fingerprint
module Ast = Fisher92_minic.Ast
module Db = Fisher92_profile.Db
module Profile = Fisher92_profile.Profile
module Vm = Fisher92_vm.Vm
module Table = Fisher92_report.Table
module Chart = Fisher92_report.Chart
module Stats = Fisher92_util.Stats
module Pool = Fisher92_util.Pool

let lang_of (l : Study.loaded) = l.workload.Workload.w_lang

(* ------------------------------------------------------------------ *)
(* Figure 1                                                            *)
(* ------------------------------------------------------------------ *)

type fig1_row = {
  f1_program : string;
  f1_dataset : string;
  f1_lang : Workload.lang;
  f1_no_calls : float;
  f1_with_calls : float;
}

let fig1 study =
  List.concat_map
    (fun (l : Study.loaded) ->
      List.map
        (fun (run : Measure.run) ->
          {
            f1_program = l.workload.w_name;
            f1_dataset = run.dataset;
            f1_lang = lang_of l;
            f1_no_calls = Measure.ipb_unpredicted run;
            f1_with_calls = Measure.ipb_unpredicted ~with_calls:true run;
          })
        l.runs)
    (Study.items study)

let fig1_chart title rows =
  Chart.grouped ~title ~unit_label:"instructions per break in control"
    (List.map
       (fun r ->
         ( Printf.sprintf "%s/%s" r.f1_program r.f1_dataset,
           [
             { Chart.s_name = "no call brks"; s_value = r.f1_no_calls };
             { Chart.s_name = "+call/ret"; s_value = r.f1_with_calls };
           ] ))
       rows)

let render_fig1 rows =
  let fortran = List.filter (fun r -> r.f1_lang = Workload.Fortran_fp) rows in
  let c = List.filter (fun r -> r.f1_lang = Workload.C_int) rows in
  fig1_chart
    "Figure 1a: instructions per break, NO prediction (FORTRAN/FP)"
    fortran
  ^ "\n"
  ^ fig1_chart "Figure 1b: instructions per break, NO prediction (C/Integer)" c

(* ------------------------------------------------------------------ *)
(* Figure 2                                                            *)
(* ------------------------------------------------------------------ *)

type fig2_row = {
  f2_program : string;
  f2_dataset : string;
  f2_lang : Workload.lang;
  f2_self : float;
  f2_others : float option;
}

let fig2 study =
  List.concat_map
    (fun (l : Study.loaded) ->
      if List.length l.runs < 2 then []
      else
        List.map
          (fun (entry : Cross.entry) ->
            {
              f2_program = l.workload.w_name;
              f2_dataset = entry.target;
              f2_lang = lang_of l;
              f2_self = entry.self_ipb;
              f2_others = entry.others_ipb;
            })
          (Cross.analyze l.runs))
    (Study.items study)

let fig2_chart title rows =
  Chart.grouped ~title ~unit_label:"instructions per mispredicted break"
    (List.map
       (fun r ->
         ( Printf.sprintf "%s/%s" r.f2_program r.f2_dataset,
           {
             Chart.s_name = "self (best)";
             s_value = r.f2_self;
           }
           ::
           (match r.f2_others with
           | Some v -> [ { Chart.s_name = "sum of others"; s_value = v } ]
           | None -> []) ))
       rows)

let render_fig2 rows =
  let spice = List.filter (fun r -> r.f2_program = "spice") rows in
  let c = List.filter (fun r -> r.f2_lang = Workload.C_int) rows in
  let other_fp =
    List.filter
      (fun r -> r.f2_lang = Workload.Fortran_fp && r.f2_program <> "spice")
      rows
  in
  fig2_chart
    "Figure 2a: instructions per break WITH prediction (spice datasets)"
    spice
  ^ "\n"
  ^ fig2_chart
      "Figure 2b: instructions per break WITH prediction (C/Integer)" c
  ^
  if other_fp = [] then ""
  else
    "\n"
    ^ fig2_chart
        "Figure 2 (suppl.): multi-dataset FORTRAN programs" other_fp

(* ------------------------------------------------------------------ *)
(* Figure 3                                                            *)
(* ------------------------------------------------------------------ *)

type fig3_row = {
  f3_program : string;
  f3_dataset : string;
  f3_lang : Workload.lang;
  f3_best : string * float;
  f3_worst : string * float;
}

let fig3 study =
  List.concat_map
    (fun (l : Study.loaded) ->
      if List.length l.runs < 2 then []
      else
        List.filter_map
          (fun (entry : Cross.entry) ->
            match (entry.best, entry.worst) with
            | Some best, Some worst ->
              Some
                {
                  f3_program = l.workload.w_name;
                  f3_dataset = entry.target;
                  f3_lang = lang_of l;
                  f3_best = best;
                  f3_worst = worst;
                }
            | _ -> None)
          (Cross.analyze l.runs))
    (Study.items study)

let fig3_chart title rows =
  Chart.grouped ~title ~unit_label:"% of best possible (self) prediction"
    (List.map
       (fun r ->
         let bname, bq = r.f3_best and wname, wq = r.f3_worst in
         ( Printf.sprintf "%s/%s" r.f3_program r.f3_dataset,
           [
             {
               Chart.s_name = Printf.sprintf "best (%s)" bname;
               s_value = 100.0 *. bq;
             };
             {
               Chart.s_name = Printf.sprintf "worst (%s)" wname;
               s_value = 100.0 *. wq;
             };
           ] ))
       rows)

let render_fig3 rows =
  let spice = List.filter (fun r -> r.f3_program = "spice") rows in
  let c = List.filter (fun r -> r.f3_lang = Workload.C_int) rows in
  fig3_chart "Figure 3a: best/worst single-dataset predictor (spice)" spice
  ^ "\n"
  ^ fig3_chart "Figure 3b: best/worst single-dataset predictor (C/Integer)" c

(* ------------------------------------------------------------------ *)
(* Table 1: dead code                                                  *)
(* ------------------------------------------------------------------ *)

type table1_row = { t1_program : string; t1_dead_pct : float }

let table1 study =
  Pool.map
    (fun (l : Study.loaded) ->
      let w = l.workload in
      let dataset = List.hd w.w_datasets in
      let raw =
        match l.runs with
        | run :: _ -> run.counts.instructions
        | [] -> invalid_arg "table1: no runs"
      in
      let dce_ir = Study.compile_variant ~dce:true w in
      let dce_run = Study.execute dce_ir dataset () in
      let dce_insns = (Breaks.of_result dce_run).instructions in
      {
        t1_program = w.w_name;
        t1_dead_pct = 100.0 *. (1.0 -. (float_of_int dce_insns /. float_of_int raw));
      })
    (Study.items study)

let render_table1 rows =
  "Table 1: dynamic dead code that global DCE would eliminate\n"
  ^ Table.render ~header:[ "PROGRAM"; "DEAD CODE" ]
      (List.map
         (fun r -> [ r.t1_program; Table.pct r.t1_dead_pct ])
         (List.sort
            (fun a b -> compare b.t1_dead_pct a.t1_dead_pct)
            rows))

(* ------------------------------------------------------------------ *)
(* Table 2: the sample base                                            *)
(* ------------------------------------------------------------------ *)

let render_table2 () =
  let rows lang =
    List.concat_map
      (fun (w : Workload.t) ->
        List.mapi
          (fun k (d : Workload.dataset) ->
            [
              (if k = 0 then w.w_name else "");
              (if k = 0 then w.w_paper_name else "");
              d.ds_name;
              d.ds_descr;
            ])
          w.w_datasets)
      (List.filter (fun w -> w.Workload.w_lang = lang) (Registry.all ()))
  in
  "Table 2: programs and datasets (FORTRAN/FP)\n"
  ^ Table.render
      ~header:[ "PROGRAM"; "MODELS"; "DATASET"; "DESCRIPTION" ]
      (rows Workload.Fortran_fp)
  ^ "\nTable 2 (cont.): programs and datasets (C/Integer)\n"
  ^ Table.render
      ~header:[ "PROGRAM"; "MODELS"; "DATASET"; "DESCRIPTION" ]
      (rows Workload.C_int)

type table2_row = {
  t2_lang : Workload.lang;
  t2_program : string;
  t2_models : string;
  t2_dataset : string;
  t2_descr : string;
}

let table2 () =
  List.concat_map
    (fun lang ->
      List.concat_map
        (fun (w : Workload.t) ->
          List.map
            (fun (d : Workload.dataset) ->
              {
                t2_lang = lang;
                t2_program = w.w_name;
                t2_models = w.w_paper_name;
                t2_dataset = d.ds_name;
                t2_descr = d.ds_descr;
              })
            w.w_datasets)
        (List.filter (fun w -> w.Workload.w_lang = lang) (Registry.all ())))
    [ Workload.Fortran_fp; Workload.C_int ]

(* ------------------------------------------------------------------ *)
(* Table 3                                                             *)
(* ------------------------------------------------------------------ *)

type table3_row = { t3_program : string; t3_dataset : string; t3_ipb : float }

let table3 study =
  List.concat_map
    (fun (l : Study.loaded) ->
      if lang_of l <> Workload.Fortran_fp || l.workload.w_name = "spice" then []
      else
        List.map
          (fun (run : Measure.run) ->
            {
              t3_program = l.workload.w_name;
              t3_dataset = run.dataset;
              t3_ipb = Measure.ipb_self run;
            })
          l.runs)
    (Study.items study)

let render_table3 rows =
  "Table 3: instructions/break, FORTRAN programs with little dataset \
   variability (self-predicted)\n"
  ^ Table.render ~header:[ "PROGRAM"; "DATASET"; "INSTRS/BREAK" ]
      (List.map
         (fun r ->
           [
             r.t3_program;
             (if r.t3_dataset = "self" then "" else r.t3_dataset);
             Table.fnum ~decimals:0 r.t3_ipb;
           ])
         (List.sort (fun a b -> compare b.t3_ipb a.t3_ipb) rows))

(* ------------------------------------------------------------------ *)
(* Percent taken                                                       *)
(* ------------------------------------------------------------------ *)

type taken_row = {
  tk_program : string;
  tk_per_dataset : (string * float) list;
  tk_spread : float;
}

let taken study =
  List.map
    (fun (l : Study.loaded) ->
      let per =
        List.map
          (fun (run : Measure.run) -> (run.dataset, Measure.percent_taken run))
          l.runs
      in
      let values = List.map snd per in
      let lo, hi = Stats.min_max values in
      {
        tk_program = l.workload.w_name;
        tk_per_dataset = per;
        tk_spread = hi -. lo;
      })
    (Study.items study)

let render_taken rows =
  "Branch percent-taken as a \"program constant\" (paper: max spread 9%\n\
   except spice)\n"
  ^ Table.render ~header:[ "PROGRAM"; "DATASET"; "% TAKEN"; "SPREAD" ]
      (List.concat_map
         (fun r ->
           List.mapi
             (fun k (ds, pct) ->
               [
                 (if k = 0 then r.tk_program else "");
                 ds;
                 Table.pct pct;
                 (if k = 0 then Table.pct r.tk_spread else "");
               ])
             r.tk_per_dataset)
         rows)

(* ------------------------------------------------------------------ *)
(* Combination strategies                                              *)
(* ------------------------------------------------------------------ *)

type combine_row = {
  cb_program : string;
  cb_cols : (string * float) list;
}

let combine study =
  let family = Predictor.summary_family () in
  List.filter_map
    (fun (l : Study.loaded) ->
      if List.length l.runs < 2 then None
      else
        let mean_quality (p : Predictor.t) =
          Stats.mean
            (List.map
               (fun (target : Measure.run) ->
                 let others =
                   List.filter
                     (fun (r : Measure.run) -> r.dataset <> target.dataset)
                     l.runs
                 in
                 let cx =
                   Predictor.context
                     ~profiles:(List.map (fun (r : Measure.run) -> r.profile) others)
                     l.ir
                 in
                 Measure.prediction_quality target (Predictor.predict p cx))
               l.runs)
        in
        Some
          {
            cb_program = l.workload.w_name;
            cb_cols =
              List.map (fun p -> (p.Predictor.p_name, mean_quality p)) family;
          })
    (Study.items study)

let render_combine rows =
  "Scaled vs unscaled vs polling summary predictors (mean fraction of\n\
   self-prediction quality; paper: scaled ~ unscaled, polling poor)\n"
  ^ Table.render
      ~header:
        ("PROGRAM"
        :: List.map
             (fun p -> p.Predictor.p_column)
             (Predictor.summary_family ()))
      (List.map
         (fun r ->
           r.cb_program
           :: List.map (fun (_, q) -> Table.pct (100.0 *. q)) r.cb_cols)
         rows)

(* ------------------------------------------------------------------ *)
(* Heuristics                                                          *)
(* ------------------------------------------------------------------ *)

type heuristic_row = {
  h_program : string;
  h_dataset : string;
  h_self : float;
  h_cols : (string * float) list;
}

let heuristics study =
  let family = Predictor.heuristic_family () in
  List.map
    (fun (l : Study.loaded) ->
      let run = List.hd l.runs in
      let cx = Predictor.context l.ir in
      {
        h_program = l.workload.w_name;
        h_dataset = run.dataset;
        h_self = Measure.ipb_self run;
        h_cols =
          List.map
            (fun p ->
              ( p.Predictor.p_name,
                Measure.ipb_predicted run (Predictor.predict p cx) ))
            family;
      })
    (Study.items study)

let render_heuristics rows =
  let geomean_vs name =
    Stats.geomean
      (List.filter_map
         (fun r ->
           let v = List.assoc name r.h_cols in
           if v > 0.0 && r.h_self < infinity then Some (r.h_self /. v)
           else None)
         rows)
  in
  "Structural (CFG-derived) heuristics vs profile feedback (instrs per\n\
   mispredicted break; paper: heuristics give up ~2x)\n"
  ^ Table.render
      ~header:
        ("PROGRAM" :: "DATASET" :: "SELF"
        :: List.map
             (fun p -> p.Predictor.p_column)
             (Predictor.heuristic_family ()))
      (List.map
         (fun r ->
           r.h_program :: r.h_dataset :: Table.fnum r.h_self
           :: List.map (fun (_, v) -> Table.fnum v) r.h_cols)
         rows)
  ^ Printf.sprintf
      "geomean self/heuristic ratio: ball-larus %.2fx  loop-struct %.2fx  \
       btfn %.2fx\n"
      (geomean_vs "ball-larus")
      (geomean_vs "loop-struct")
      (geomean_vs "btfn")

(* ------------------------------------------------------------------ *)
(* compress <-> uncompress                                             *)
(* ------------------------------------------------------------------ *)

type crossmode_row = {
  cm_predictor : string;
  cm_target : string;
  cm_dataset : string;
  cm_quality : float;
}

let crossmode study =
  match
    (Study.find study "compress", Study.find study "uncompress")
  with
  | exception Not_found -> []
  | comp, unc ->
    let accumulated (l : Study.loaded) =
      Profile.sum (List.map (fun (r : Measure.run) -> r.profile) l.runs)
    in
    let one ~predictor ~from_name ~target_loaded ~target_name =
      let p = Prediction.of_profile predictor in
      List.map
        (fun (run : Measure.run) ->
          {
            cm_predictor = from_name;
            cm_target = target_name;
            cm_dataset = run.dataset;
            cm_quality = Measure.prediction_quality run p;
          })
        target_loaded.Study.runs
    in
    one ~predictor:(accumulated comp) ~from_name:"compress"
      ~target_loaded:unc ~target_name:"uncompress"
    @ one ~predictor:(accumulated unc) ~from_name:"uncompress"
        ~target_loaded:comp ~target_name:"compress"

let render_crossmode rows =
  "compress <-> uncompress cross-mode prediction (paper: \"no\n\
   correlation ... a very bad idea\"; quality = fraction of self)\n"
  ^ Table.render
      ~header:[ "PREDICTOR"; "TARGET"; "DATASET"; "QUALITY" ]
      (List.map
         (fun r ->
           [
             r.cm_predictor;
             r.cm_target;
             r.cm_dataset;
             Table.pct (100.0 *. r.cm_quality);
           ])
         rows)

(* ------------------------------------------------------------------ *)
(* Static vs dynamic                                                   *)
(* ------------------------------------------------------------------ *)

type dynamic_row = {
  dy_program : string;
  dy_dataset : string;
  dy_static_pct : float;
  dy_onebit_pct : float;
  dy_twobit_pct : float;
}

let dynamic study =
  List.map
    (fun (s : Tracing.shared) ->
      let l = s.sh_loaded in
      let run = List.hd l.runs in
      let pct scheme = Dynamic.percent_correct (Tracing.cold s scheme) in
      {
        dy_program = l.workload.w_name;
        dy_dataset = run.dataset;
        dy_static_pct =
          Measure.percent_correct run (Measure.self_prediction run);
        dy_onebit_pct = pct Dynamic.Last_direction;
        dy_twobit_pct = pct Dynamic.Two_bit;
      })
    (Tracing.shared study)

let render_dynamic rows =
  "Static (self profile) vs dynamic hardware predictors (% branches\n\
   correct; paper context: simple hardware got 80-90% on systems codes)\n"
  ^ Table.render
      ~header:[ "PROGRAM"; "DATASET"; "STATIC-SELF"; "1-BIT"; "2-BIT" ]
      (List.map
         (fun r ->
           [
             r.dy_program;
             r.dy_dataset;
             Table.pct r.dy_static_pct;
             Table.pct r.dy_onebit_pct;
             Table.pct r.dy_twobit_pct;
           ])
         rows)

(* ------------------------------------------------------------------ *)
(* Trace-driven simulation                                             *)
(* ------------------------------------------------------------------ *)

let dynsim_schemes () =
  [
    Dynamic.Last_direction;
    Dynamic.Two_bit;
    Dynamic.Two_level { history_bits = 10 };
    Dynamic.Gshare { history_bits = 12 };
  ]

type dynsim_row = {
  dn_program : string;
  dn_dataset : string;
  dn_static_self : float;
  dn_static_prof : float;
  dn_schemes : (string * float) list;
}

let dynsim study =
  List.map
    (fun (s : Tracing.shared) ->
      let l = s.sh_loaded in
      let run = List.hd l.runs in
      let prof =
        Profile.sum (List.map (fun (r : Measure.run) -> r.profile) l.runs)
      in
      {
        dn_program = l.workload.w_name;
        dn_dataset = run.dataset;
        dn_static_self =
          Measure.percent_correct run (Measure.self_prediction run);
        dn_static_prof =
          Measure.percent_correct run (Prediction.of_profile prof);
        dn_schemes =
          List.map
            (fun scheme ->
              ( Dynamic.scheme_name scheme,
                Dynamic.percent_correct (Tracing.cold s scheme) ))
            (dynsim_schemes ());
      })
    (Tracing.shared study)

let render_dynsim rows =
  let scheme_names =
    match rows with [] -> [] | r :: _ -> List.map fst r.dn_schemes
  in
  let geo f = Stats.geomean (List.map f rows) in
  "Trace-driven predictor comparison, first dataset (% dynamic branches\n\
   correct; static-prof is the accumulated profile of every dataset)\n"
  ^ Table.render
      ~header:
        ("PROGRAM" :: "DATASET" :: "STATIC-SELF" :: "STATIC-PROF"
        :: List.map String.uppercase_ascii scheme_names)
      (List.map
         (fun r ->
           r.dn_program :: r.dn_dataset
           :: Table.pct r.dn_static_self
           :: Table.pct r.dn_static_prof
           :: List.map (fun (_, v) -> Table.pct v) r.dn_schemes)
         rows)
  ^
  if rows = [] then ""
  else
    Printf.sprintf "geomean: static-self %.1f  static-prof %.1f  %s\n"
      (geo (fun r -> r.dn_static_self))
      (geo (fun r -> r.dn_static_prof))
      (String.concat "  "
         (List.map
            (fun name ->
              Printf.sprintf "%s %.1f" name
                (geo (fun r -> List.assoc name r.dn_schemes)))
            scheme_names))

(* ------------------------------------------------------------------ *)
(* Predictability buckets                                              *)
(* ------------------------------------------------------------------ *)

type predictability_row = {
  pd_program : string;
  pd_dataset : string;
  pd_sites : int;
  pd_always : int;
  pd_mostly : int;
  pd_history : int;
  pd_hard : int;
  pd_hard_dyn_pct : float;
}

(* The history predictor the buckets (and the H2P class) are measured
   against, replayed cold. *)
let gshare12 = Dynamic.Gshare { history_bits = 12 }

type bucket = Always | Mostly | History | Hard

(* Every covered site of [run] with its bucket: one direction only,
   >= 95% biased, >= 90% predicted by [gshare] (which replayed [run]'s
   own trace), or hard. *)
let site_buckets (run : Measure.run) gshare =
  let sc = Dynamic.site_correct gshare
  and si = Dynamic.site_incorrect gshare in
  let tak = run.profile.Profile.taken in
  List.filter_map
    (fun (s, n) ->
      if n = 0 then None
      else
        let bias = float_of_int (max tak.(s) (n - tak.(s))) /. float_of_int n in
        let acc = float_of_int sc.(s) /. float_of_int (sc.(s) + si.(s)) in
        Some
          ( s,
            if bias = 1.0 then Always
            else if bias >= 0.95 then Mostly
            else if acc >= 0.9 then History
            else Hard ))
    (List.mapi (fun s n -> (s, n))
       (Array.to_list run.profile.Profile.encountered))

let predictability study =
  List.map
    (fun (s : Tracing.shared) ->
      let l = s.sh_loaded in
      let run = List.hd l.runs in
      let buckets = site_buckets run (Tracing.cold s gshare12) in
      let count b = List.length (List.filter (fun (_, b') -> b' = b) buckets) in
      let weight sites =
        List.fold_left
          (fun n (site, _) -> n + run.profile.Profile.encountered.(site))
          0 sites
      in
      {
        pd_program = l.workload.w_name;
        pd_dataset = run.dataset;
        pd_sites = List.length buckets;
        pd_always = count Always;
        pd_mostly = count Mostly;
        pd_history = count History;
        pd_hard = count Hard;
        pd_hard_dyn_pct =
          Stats.percent
            (weight (List.filter (fun (_, b) -> b = Hard) buckets))
            (weight buckets);
      })
    (Tracing.shared study)

let render_predictability rows =
  "Per-site predictability buckets, first dataset (always = one\n\
   direction only; mostly = >=95% biased; history = gshare/12 gets\n\
   >=90% right; hard = the rest, with its share of dynamic branches)\n"
  ^ Table.render
      ~header:
        [
          "PROGRAM"; "DATASET"; "SITES"; "ALWAYS"; "MOSTLY"; "HISTORY";
          "HARD"; "HARD-DYN";
        ]
      (List.map
         (fun r ->
           [
             r.pd_program; r.pd_dataset; Table.inum r.pd_sites;
             Table.inum r.pd_always; Table.inum r.pd_mostly;
             Table.inum r.pd_history; Table.inum r.pd_hard;
             Table.pct r.pd_hard_dyn_pct;
           ])
         rows)

(* ------------------------------------------------------------------ *)
(* Predictor-zoo tournament                                             *)
(* ------------------------------------------------------------------ *)

type tournament_row = {
  tn_program : string;
  tn_scheme : string;
  tn_cold_pct : float;
  tn_warm_pct : float;
  tn_cold_mr : int;
  tn_warm_mr : int;
  tn_cold_ipm : float;
  tn_warm_ipm : float;
}

let tournament study =
  List.concat_map
    (fun (s : Tracing.shared) ->
      let l = s.sh_loaded in
      let run = List.hd l.runs in
      let instrs = run.counts.Breaks.instructions in
      let ipm t =
        Breaks.per_break ~instructions:instrs ~breaks:(Dynamic.incorrect t)
      in
      List.map
        (fun (rc : Tracing.raced) ->
          {
            tn_program = l.workload.w_name;
            tn_scheme = Dynamic.scheme_name rc.rc_scheme;
            tn_cold_pct = Dynamic.percent_correct rc.rc_cold;
            tn_warm_pct = Dynamic.percent_correct rc.rc_warm;
            tn_cold_mr = Dynamic.incorrect rc.rc_cold;
            tn_warm_mr = Dynamic.incorrect rc.rc_warm;
            tn_cold_ipm = ipm rc.rc_cold;
            tn_warm_ipm = ipm rc.rc_warm;
          })
        s.sh_races)
    (Tracing.shared study)

(* Geomean of per-row (warm+1)/(cold+1) mispredict ratios — the +1
   keeps zero-mispredict rows defined; < 1.0 means warming won. *)
let warm_ratio rows cold warm =
  Stats.geomean
    (List.map
       (fun r ->
         float_of_int (warm r + 1) /. float_of_int (cold r + 1))
       rows)

let render_tournament rows =
  let scheme_names =
    List.sort_uniq compare (List.map (fun r -> r.tn_scheme) rows)
  in
  "Predictor-zoo tournament, first dataset: % dynamic branches correct\n\
   and instructions per mispredict (ipm), cold vs profile-warmed\n\
   (counters seeded from every dataset's profile via the remap chain)\n"
  ^ Table.render
      ~header:
        [
          "PROGRAM"; "SCHEME"; "COLD"; "WARM"; "COLD-IPM"; "WARM-IPM";
          "WARM/COLD-MR";
        ]
      (List.map
         (fun r ->
           [
             r.tn_program; r.tn_scheme; Table.pct r.tn_cold_pct;
             Table.pct r.tn_warm_pct; Table.fnum r.tn_cold_ipm;
             Table.fnum r.tn_warm_ipm;
             Printf.sprintf "%.3f"
               (float_of_int (r.tn_warm_mr + 1)
               /. float_of_int (r.tn_cold_mr + 1));
           ])
         rows)
  ^
  if rows = [] then ""
  else
    String.concat ""
      (List.map
         (fun name ->
           let sr = List.filter (fun r -> r.tn_scheme = name) rows in
           Printf.sprintf
             "geomean %-12s cold %.1f%%  warm %.1f%%  warm/cold mispredicts \
              %.3f\n"
             name
             (Stats.geomean (List.map (fun r -> r.tn_cold_pct) sr))
             (Stats.geomean (List.map (fun r -> r.tn_warm_pct) sr))
             (warm_ratio sr
                (fun r -> r.tn_cold_mr)
                (fun r -> r.tn_warm_mr)))
         scheme_names)

(* ------------------------------------------------------------------ *)
(* Hard-to-predict branch class                                         *)
(* ------------------------------------------------------------------ *)

type h2p_row = {
  hp_program : string;
  hp_sites : int;  (** H2P sites (of the covered sites) *)
  hp_dyn_pct : float;  (** their share of dynamic branches *)
  hp_schemes : (string * int * int) list;
      (** (scheme, cold mispredicts, warm mispredicts) at H2P sites *)
}

(* The H2P class of [Lin and Tarsa]: the few static sites a capable
   history predictor still gets wrong — here, covered sites that are
   neither >=95% biased nor >=90% predicted by cold gshare/12, which is
   the [predictability] experiment's "hard" bucket. *)
let h2p study =
  List.map
    (fun (s : Tracing.shared) ->
      let l = s.sh_loaded in
      let run = List.hd l.runs in
      let hard =
        List.filter_map
          (fun (site, b) -> if b = Hard then Some site else None)
          (site_buckets run (Tracing.cold s gshare12))
      in
      let dyn_total = Array.fold_left ( + ) 0 run.profile.Profile.encountered in
      let dyn_hard =
        List.fold_left
          (fun n s -> n + run.profile.Profile.encountered.(s))
          0 hard
      in
      let at_sites tallies = List.fold_left (fun n s -> n + tallies.(s)) 0 hard in
      {
        hp_program = l.workload.w_name;
        hp_sites = List.length hard;
        hp_dyn_pct = Stats.percent dyn_hard dyn_total;
        hp_schemes =
          List.map
            (fun (rc : Tracing.raced) ->
              ( Dynamic.scheme_name rc.rc_scheme,
                at_sites (Dynamic.site_incorrect rc.rc_cold),
                at_sites (Dynamic.site_incorrect rc.rc_warm) ))
            s.sh_races;
      })
    (Tracing.shared study)

let render_h2p rows =
  let scheme_names =
    match rows with [] -> [] | r :: _ -> List.map (fun (n, _, _) -> n) r.hp_schemes
  in
  "Hard-to-predict branch class (covered sites <95% biased that cold\n\
   gshare/12 gets <90% right): mispredicts at those sites per scheme,\n\
   cold vs profile-warmed\n"
  ^ Table.render
      ~header:[ "PROGRAM"; "H2P-SITES"; "H2P-DYN"; "SCHEME"; "COLD"; "WARM" ]
      (List.concat_map
         (fun r ->
           List.map
             (fun (name, cold, warm) ->
               [
                 r.hp_program; Table.inum r.hp_sites; Table.pct r.hp_dyn_pct;
                 name; Table.inum cold; Table.inum warm;
               ])
             r.hp_schemes)
         rows)
  ^
  if rows = [] then ""
  else
    String.concat ""
      (List.map
         (fun name ->
           let pairs =
             List.filter_map
               (fun r ->
                 List.find_opt (fun (n, _, _) -> n = name) r.hp_schemes)
               rows
           in
           Printf.sprintf "geomean %-12s warm/cold H2P mispredicts %.3f\n" name
             (warm_ratio pairs
                (fun (_, c, _) -> c)
                (fun (_, _, w) -> w)))
         scheme_names)

(* ------------------------------------------------------------------ *)
(* Inlining ablation                                                   *)
(* ------------------------------------------------------------------ *)

type inline_row = {
  il_program : string;
  il_dataset : string;
  il_base_with_calls : float;
  il_inlined_with_calls : float;
  il_calls_removed_pct : float;
}

let inline_ablation study =
  Pool.map
    (fun (l : Study.loaded) ->
      let run = List.hd l.runs in
      let dataset = List.hd l.workload.w_datasets in
      let inl_ir = Study.compile_variant ~inline:true l.workload in
      let inl_result = Study.execute inl_ir dataset () in
      let inl_counts = Breaks.of_result inl_result in
      let base_calls = run.counts.direct_call_ret in
      let removed =
        if base_calls = 0 then 0.0
        else
          100.0
          *. (1.0
             -. (float_of_int inl_counts.direct_call_ret /. float_of_int base_calls))
      in
      {
        il_program = l.workload.w_name;
        il_dataset = run.dataset;
        il_base_with_calls = Measure.ipb_unpredicted ~with_calls:true run;
        il_inlined_with_calls =
          Breaks.per_break ~instructions:inl_counts.instructions
            ~breaks:(Breaks.unpredicted_breaks ~with_calls:true inl_counts);
        il_calls_removed_pct = removed;
      })
    (Study.items study)

let render_inline rows =
  "Inlining ablation: unpredicted instrs/break counting call/return\n\
   breaks, before and after inlining small functions\n"
  ^ Table.render
      ~header:[ "PROGRAM"; "DATASET"; "BASE"; "INLINED"; "CALLS REMOVED" ]
      (List.map
         (fun r ->
           [
             r.il_program;
             r.il_dataset;
             Table.fnum r.il_base_with_calls;
             Table.fnum r.il_inlined_with_calls;
             Table.pct r.il_calls_removed_pct;
           ])
         rows)

(* ------------------------------------------------------------------ *)
(* Gap distribution                                                    *)
(* ------------------------------------------------------------------ *)

type gaps_row = {
  gp_program : string;
  gp_dataset : string;
  gp_mean : float;
  gp_median : float;
  gp_p90 : float;
  gp_skew : float;
}

let gaps study =
  Pool.map
    (fun (l : Study.loaded) ->
      let run = List.hd l.runs in
      let dataset = List.hd l.workload.w_datasets in
      let config =
        {
          Vm.default_config with
          predicted = Some (Measure.self_prediction run);
        }
      in
      let r = Study.execute l.ir dataset ~config () in
      let s = Fisher92_metrics.Gaps.summarize r in
      {
        gp_program = l.workload.w_name;
        gp_dataset = run.dataset;
        gp_mean = s.g_mean;
        gp_median = s.g_median;
        gp_p90 = s.g_p90;
        gp_skew = s.g_skew;
      })
    (Study.items study)

let render_gaps rows =
  "Distribution of instruction runs between breaks (self-predicted;\n\
   paper: \"branches in real programs are not evenly spaced\")\n"
  ^ Table.render
      ~header:[ "PROGRAM"; "DATASET"; "MEAN GAP"; "MEDIAN"; "P90"; "MEAN/MEDIAN" ]
      (List.map
         (fun r ->
           [
             r.gp_program;
             r.gp_dataset;
             Table.fnum r.gp_mean;
             Table.fnum r.gp_median;
             Table.fnum r.gp_p90;
             Printf.sprintf "%.1fx" r.gp_skew;
           ])
         rows)

(* ------------------------------------------------------------------ *)
(* Switch reordering                                                   *)
(* ------------------------------------------------------------------ *)

type switchsort_row = {
  ss_program : string;
  ss_dataset : string;
  ss_base_insns : int;
  ss_sorted_insns : int;
  ss_insns_saved_pct : float;
  ss_base_ipb : float;
  ss_sorted_ipb : float;
}

(* Per-(function, case-constant) selection counts, recovered from the
   branch profile through the site labels the compiler attaches to each
   cascade test ("fname#N:caseK"; the test's taken count = how often the
   case was selected). *)
let case_heat ir (profile : Profile.t) =
  let tbl = Hashtbl.create 64 in
  for s = 0 to Profile.n_sites profile - 1 do
    let label = Fisher92_ir.Program.site_label ir s in
    match String.index_opt label '#' with
    | None -> ()
    | Some hash -> (
      let fname = String.sub label 0 hash in
      match String.rindex_opt label ':' with
      | None -> ()
      | Some colon ->
        let hint = String.sub label (colon + 1) (String.length label - colon - 1) in
        if String.length hint > 4 && String.sub hint 0 4 = "case" then
          match int_of_string_opt (String.sub hint 4 (String.length hint - 4)) with
          | None -> ()
          | Some k ->
            let key = (fname, k) in
            let prev = try Hashtbl.find tbl key with Not_found -> 0 in
            Hashtbl.replace tbl key (prev + profile.taken.(s)))
  done;
  fun ~fname k -> try Hashtbl.find tbl (fname, k) with Not_found -> 0

let program_has_switch (p : Fisher92_minic.Ast.program) =
  let found = ref false in
  List.iter
    (fun f ->
      ignore
        (Fisher92_minic.Ast.map_block
           (fun s ->
             (match s with Fisher92_minic.Ast.Switch _ -> found := true | _ -> ());
             s)
           f.Fisher92_minic.Ast.f_body))
    p.Fisher92_minic.Ast.funcs;
  !found

let switchsort study =
  Pool.map
    (fun (l : Study.loaded) ->
      let run = List.hd l.runs in
      let dataset = List.hd l.workload.w_datasets in
      let heat = case_heat l.ir run.profile in
      let options =
        {
          (Fisher92_workloads.Workload.compile_options l.workload) with
          switch_heat = Some heat;
        }
      in
      let sorted_ir =
        Fisher92_minic.Compile.compile ~options l.workload.w_program
      in
      let sorted_result = Study.execute sorted_ir dataset () in
      let sorted_run =
        Measure.of_result ~program:l.workload.w_name ~dataset:run.dataset
          sorted_result
      in
      let base = run.counts.instructions in
      let sorted = sorted_run.counts.instructions in
      {
        ss_program = l.workload.w_name;
        ss_dataset = run.dataset;
        ss_base_insns = base;
        ss_sorted_insns = sorted;
        ss_insns_saved_pct =
          100.0 *. (1.0 -. (float_of_int sorted /. float_of_int base));
        ss_base_ipb = Measure.ipb_self run;
        ss_sorted_ipb = Measure.ipb_self sorted_run;
      })
    (List.filter
       (fun (l : Study.loaded) -> program_has_switch l.workload.w_program)
       (Study.items study))

let render_switchsort rows =
  "Profile-guided switch reordering (hottest case first; paper: a\n\
   feedback compiler should order multi-way cascades by probability)\n"
  ^ Table.render
      ~header:
        [ "PROGRAM"; "DATASET"; "BASE INSNS"; "SORTED"; "SAVED"; "BASE I/B";
          "SORTED I/B" ]
      (List.map
         (fun r ->
           [
             r.ss_program;
             r.ss_dataset;
             Table.inum r.ss_base_insns;
             Table.inum r.ss_sorted_insns;
             Table.pct r.ss_insns_saved_pct;
             Table.fnum r.ss_base_ipb;
             Table.fnum r.ss_sorted_ipb;
           ])
         rows)

(* ------------------------------------------------------------------ *)
(* Instrumentation overhead                                            *)
(* ------------------------------------------------------------------ *)

type overhead_row = {
  ov_program : string;
  ov_dataset : string;
  ov_clean_insns : int;
  ov_instrumented_insns : int;
  ov_overhead_pct : float;
  ov_counters_match : bool;
}

let overhead study =
  Pool.map
    (fun (l : Study.loaded) ->
      let run = List.hd l.runs in
      let dataset = List.hd l.workload.w_datasets in
      let instrumented = Fisher92_ir.Instrument.branch_counters l.ir in
      let config =
        {
          Vm.default_config with
          dump_arrays = [ Fisher92_ir.Instrument.counters_array ];
        }
      in
      let r = Study.execute instrumented dataset ~config () in
      let counters_match =
        match r.dumped with
        | [ (_, `Ints counters) ] ->
          let ok = ref true in
          Array.iteri
            (fun s enc ->
              let taken = run.profile.taken.(s) in
              if counters.(2 * s) <> enc || counters.((2 * s) + 1) <> taken then
                ok := false)
            run.profile.encountered;
          !ok
        | _ -> false
      in
      let clean = run.counts.instructions in
      let inst = (Breaks.of_result r).instructions in
      {
        ov_program = l.workload.w_name;
        ov_dataset = run.dataset;
        ov_clean_insns = clean;
        ov_instrumented_insns = inst;
        ov_overhead_pct =
          100.0 *. ((float_of_int inst /. float_of_int clean) -. 1.0);
        ov_counters_match = counters_match;
      })
    (Study.items study)

let render_overhead rows =
  "IFPROBBER instrumentation overhead: counter updates before every\n\
   branch (the perturbation the paper's two-binary methodology factored\n\
   out); the in-program counters must equal the external profile\n"
  ^ Table.render
      ~header:
        [ "PROGRAM"; "DATASET"; "CLEAN"; "INSTRUMENTED"; "OVERHEAD";
          "COUNTERS OK" ]
      (List.map
         (fun r ->
           [
             r.ov_program;
             r.ov_dataset;
             Table.inum r.ov_clean_insns;
             Table.inum r.ov_instrumented_insns;
             Table.pct r.ov_overhead_pct;
             (if r.ov_counters_match then "yes" else "NO");
           ])
         rows)

(* ------------------------------------------------------------------ *)
(* Coverage correlation                                                *)
(* ------------------------------------------------------------------ *)

type coverage_row = {
  co_program : string;
  co_pairs : int;
  co_coverage_r : float;
  co_agreement_r : float;
}

let coverage study =
  List.filter_map
    (fun (l : Study.loaded) ->
      if List.length l.runs < 2 then None
      else
        let c = Fisher92_metrics.Coverage.correlate l.runs in
        Some
          {
            co_program = c.cr_program;
            co_pairs = c.cr_n;
            co_coverage_r = c.cr_coverage_r;
            co_agreement_r = c.cr_agreement_r;
          })
    (Study.items study)

let render_coverage rows =
  "The paper's \"Coverage\" quantification attempt: does predictor\n\
   emphasis (coverage) or direction agreement explain prediction\n\
   quality?  (paper: \"nothing we tried seemed to correlate well\")\n"
  ^ Table.render
      ~header:[ "PROGRAM"; "PAIRS"; "r(COVERAGE)"; "r(AGREEMENT)" ]
      (List.map
         (fun r ->
           [
             r.co_program;
             string_of_int r.co_pairs;
             Printf.sprintf "%+.2f" r.co_coverage_r;
             Printf.sprintf "%+.2f" r.co_agreement_r;
           ])
         rows)

(* ------------------------------------------------------------------ *)
(* Staleness: stale profiles through the degradation chain             *)
(* ------------------------------------------------------------------ *)

type stale_row = {
  st_program : string;
  st_dataset : string;
  st_self : float;
  st_remap : float;
  st_heur : float;
  st_exact : int;
  st_remapped : int;
  st_proof : int;
  st_heuristic : int;
  st_default : int;
}

(* The single-site source mutation: one never-taken guard branch at the
   top of the entry function.  It adds one branch site and renumbers
   every site after it — the exact "profile from a previous version of
   the program" hazard.  The guard condition compares a runtime value
   (so constant folding cannot delete the branch) against a bound no
   dataset approaches, keeping behaviour unchanged. *)
let mutate_source (p : Ast.program) : Ast.program =
  let entry = List.find (fun (f : Ast.fundecl) -> f.f_name = p.entry) p.funcs in
  let big_i = -1000003619 and big_f = -1.0e18 in
  let against ty v =
    if ty = Ast.Tint then Ast.Cmp (Ast.Clt, v, Ast.Int big_i)
    else Ast.Cmp (Ast.Clt, v, Ast.Float big_f)
  in
  let cond =
    match
      List.find_opt (fun (pr : Ast.param) -> pr.p_ty = Ast.Tint) entry.f_params
    with
    | Some pr -> against Ast.Tint (Ast.Var pr.p_name)
    | None -> (
      match entry.f_params with
      | pr :: _ -> against pr.p_ty (Ast.Var pr.p_name)
      | [] -> (
        match p.globals with
        | g :: _ -> against g.g_ty (Ast.Global g.g_name)
        | [] -> (
          match p.arrays with
          | a :: _ -> against a.a_ty (Ast.Load (a.a_name, Ast.Int 0))
          | [] -> Ast.Cmp (Ast.Clt, Ast.Int 0, Ast.Int big_i))))
  in
  let guard = Ast.If (cond, [ Ast.Output (Ast.Int 424242) ], []) in
  {
    p with
    funcs =
      List.map
        (fun (f : Ast.fundecl) ->
          if String.equal f.f_name p.entry then
            { f with f_body = guard :: f.f_body }
          else f)
        p.funcs;
  }

let staleness study =
  let predictor name =
    match Predictor.find name with
    | Some p -> p
    | None -> invalid_arg ("staleness: unregistered predictor " ^ name)
  in
  let remap_chain = predictor "remap-chain" in
  let bare_heuristic = predictor "ball-larus" in
  Pool.map
    (fun (l : Study.loaded) ->
      let w = l.workload in
      (* the database as the previous build left it: counters plus the
         old build's fingerprint and site keys *)
      let db =
        Db.create ~program:w.w_name
          ~n_sites:(Fisher92_ir.Program.n_sites l.ir)
      in
      List.iter
        (fun (r : Measure.run) -> Db.record db ~dataset:r.dataset r.profile)
        l.runs;
      Db.set_identity db
        ~fingerprint:(Fingerprint.program_hash l.ir)
        ~sitekeys:(Fingerprint.site_keys l.ir);
      let mutated = { w with Workload.w_program = mutate_source w.w_program } in
      let mir = Study.compile_variant mutated in
      let d = List.hd w.w_datasets in
      let run =
        Measure.of_result ~program:w.w_name ~dataset:d.ds_name
          (Study.execute mir d ())
      in
      (* one extra [Remap.plan] beyond the registered predictor's own
         call — cheap static analysis, and the provenance counts are
         not part of the predictor interface *)
      let e, r, pf, h, dflt = Remap.counts (Remap.plan mir db) in
      let cx = Predictor.context ~db mir in
      {
        st_program = w.w_name;
        st_dataset = d.ds_name;
        st_self = Measure.ipb_self run;
        st_remap = Measure.ipb_predicted run (Predictor.predict remap_chain cx);
        st_heur = Measure.ipb_predicted run (Predictor.predict bare_heuristic cx);
        st_exact = e;
        st_remapped = r;
        st_proof = pf;
        st_heuristic = h;
        st_default = dflt;
      })
    (Study.items study)

let render_staleness rows =
  let wins =
    List.length (List.filter (fun r -> r.st_remap > r.st_heur) rows)
  in
  "Stale-profile degradation chain: the database was recorded against\n\
   the previous build, then one branch was inserted at the top of the\n\
   entry function and the program recompiled (every later site index\n\
   shifts).  Remapped stale counters vs the bare structural heuristic\n\
   (instrs per mispredicted break; higher is better)\n"
  ^ Table.render
      ~header:
        [ "PROGRAM"; "DATASET"; "SELF"; "REMAP"; "HEUR"; "REMAPPED";
          "PROOF"; "HEUR-N"; "DEFAULT" ]
      (List.map
         (fun r ->
           [
             r.st_program;
             r.st_dataset;
             Table.fnum r.st_self;
             Table.fnum r.st_remap;
             Table.fnum r.st_heur;
             string_of_int r.st_remapped;
             string_of_int r.st_proof;
             string_of_int r.st_heuristic;
             string_of_int r.st_default;
           ])
         rows)
  ^ Printf.sprintf "stale-remapped beats the bare heuristic on %d/%d workloads\n"
      wins (List.length rows)

(* ------------------------------------------------------------------ *)
(* Static proof: what the branch-proof pass decides without a profile  *)
(* ------------------------------------------------------------------ *)

type proof_row = {
  pr_program : string;
  pr_sites : int;
  pr_taken : int;
  pr_not_taken : int;
  pr_loop : int;
  pr_unknown : int;
  pr_static_cover : float;
  pr_dyn_cover : float;
  pr_accuracy : float;
  pr_profile_mr : int;
  pr_proof_mr : int;
}

let static_proof study =
  let module B = Fisher92_analysis.Brclass in
  List.map
    (fun (l : Study.loaded) ->
      let classes = (B.classify l.ir).B.classes in
      let pt, pn, lb, un = B.counts { B.classes } in
      let n = Array.length classes in
      let profiles = List.map (fun (r : Measure.run) -> r.profile) l.runs in
      let acc = Profile.sum profiles in
      (* dynamic weight of the classified sites, and how often the
         proof-predicted direction was the one executed *)
      let dyn_classified = ref 0 in
      let pred_enc = ref 0 and pred_correct = ref 0 in
      Array.iteri
        (fun s (sc : B.site_class) ->
          let enc = acc.Profile.encountered.(s)
          and tk = acc.Profile.taken.(s) in
          if sc.B.sc_cls <> B.Unknown then
            dyn_classified := !dyn_classified + enc;
          match B.predicted_direction sc.B.sc_cls with
          | Some dir ->
            pred_enc := !pred_enc + enc;
            pred_correct := !pred_correct + (if dir then tk else enc - tk)
          | None -> ())
        classes;
      (* leave-one-out cross prediction: fill the sites the training
         profiles never saw with the proved direction instead of the
         static default and count total mispredicts over all targets *)
      let profile_mr = ref 0 and proof_mr = ref 0 in
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
                match majority s with Some d -> d | None -> false)
          in
          let proofed =
            Array.init n (fun s ->
                match majority s with
                | Some d -> d
                | None -> (
                  match B.predicted_direction classes.(s).B.sc_cls with
                  | Some d -> d
                  | None -> false))
          in
          profile_mr := !profile_mr + Profile.mispredicts ~prediction:alone target;
          proof_mr := !proof_mr + Profile.mispredicts ~prediction:proofed target)
        profiles;
      {
        pr_program = l.workload.Workload.w_name;
        pr_sites = n;
        pr_taken = pt;
        pr_not_taken = pn;
        pr_loop = lb;
        pr_unknown = un;
        pr_static_cover = Stats.percent (n - un) n;
        pr_dyn_cover =
          Stats.percent !dyn_classified (Profile.total_branches acc);
        pr_accuracy = Stats.percent !pred_correct (max !pred_enc 1);
        pr_profile_mr = !profile_mr;
        pr_proof_mr = !proof_mr;
      })
    (Study.items study)

let render_static_proof rows =
  let never_worse =
    List.length (List.filter (fun r -> r.pr_proof_mr <= r.pr_profile_mr) rows)
  in
  "Static branch proofs (SCCP + value ranges + counted-loop bounds):\n\
   per-site classifications, their dynamic weight, and leave-one-out\n\
   cross-prediction with proved directions filling unprofiled sites\n\
   (PROFILE/+PROOF are total mispredicts; lower is better)\n"
  ^ Table.render
      ~header:
        [ "PROGRAM"; "SITES"; "TAKEN"; "NOT-TKN"; "LOOP"; "UNKNOWN";
          "STATIC%"; "DYN%"; "ACC%"; "PROFILE"; "+PROOF" ]
      (List.map
         (fun r ->
           [
             r.pr_program;
             string_of_int r.pr_sites;
             string_of_int r.pr_taken;
             string_of_int r.pr_not_taken;
             string_of_int r.pr_loop;
             string_of_int r.pr_unknown;
             Table.pct r.pr_static_cover;
             Table.pct r.pr_dyn_cover;
             Table.pct r.pr_accuracy;
             Table.inum r.pr_profile_mr;
             Table.inum r.pr_proof_mr;
           ])
         rows)
  ^ Printf.sprintf
      "proof-filled prediction is never worse on %d/%d workloads\n"
      never_worse (List.length rows)

(* ------------------------------------------------------------------ *)
(* Registry: every experiment, in the paper's presentation order.      *)
(* This block is the single source of the section-name list — the CLI, *)
(* the golden test and render_all all derive from it.  perfbench names *)
(* the ids itself, so that a section removed later reads 0 there.      *)
(* ------------------------------------------------------------------ *)

let fcell = Experiment.fcell
let icell = string_of_int

let reg ~id ~paper ~descr ?chart ~render ~columns ~cells compute =
  Experiment.register
    (Experiment.make ~id ~paper ~descr ?chart ~render ~columns ~cells compute)

let () =
  reg ~id:"table2" ~paper:"Table 2"
    ~descr:"programs and datasets of the sample base"
    ~render:(fun _ -> render_table2 ())
    ~columns:[ "lang"; "program"; "models"; "dataset"; "description" ]
    ~cells:(fun r ->
      [
        [
          Workload.lang_name r.t2_lang; r.t2_program; r.t2_models;
          r.t2_dataset; r.t2_descr;
        ];
      ])
    (fun _ -> table2 ());
  reg ~id:"table1" ~paper:"Table 1"
    ~descr:"dynamic dead code that global DCE would eliminate"
    ~render:render_table1
    ~columns:[ "program"; "dead_pct" ]
    ~cells:(fun r -> [ [ r.t1_program; fcell r.t1_dead_pct ] ])
    (fun study -> table1 (Lazy.force study));
  reg ~id:"fig1" ~paper:"Figure 1"
    ~descr:"instrs per break with no prediction, +/- call/return breaks"
    ~chart:render_fig1 ~render:render_fig1
    ~columns:[ "program"; "dataset"; "lang"; "ipb_no_calls"; "ipb_with_calls" ]
    ~cells:(fun r ->
      [
        [
          r.f1_program; r.f1_dataset; Workload.lang_name r.f1_lang;
          fcell r.f1_no_calls; fcell r.f1_with_calls;
        ];
      ])
    (fun study -> fig1 (Lazy.force study));
  reg ~id:"fig2" ~paper:"Figure 2"
    ~descr:"instrs per mispredicted break, self vs scaled-others prediction"
    ~chart:render_fig2 ~render:render_fig2
    ~columns:[ "program"; "dataset"; "lang"; "self_ipb"; "others_ipb" ]
    ~cells:(fun r ->
      [
        [
          r.f2_program; r.f2_dataset; Workload.lang_name r.f2_lang;
          fcell r.f2_self;
          (match r.f2_others with Some v -> fcell v | None -> "-");
        ];
      ])
    (fun study -> fig2 (Lazy.force study));
  reg ~id:"table3" ~paper:"Table 3"
    ~descr:"self-predicted instrs/break, low-variability FORTRAN programs"
    ~render:render_table3
    ~columns:[ "program"; "dataset"; "ipb" ]
    ~cells:(fun r -> [ [ r.t3_program; r.t3_dataset; fcell r.t3_ipb ] ])
    (fun study -> table3 (Lazy.force study));
  reg ~id:"fig3" ~paper:"Figure 3"
    ~descr:"best and worst single-dataset predictors per target"
    ~chart:render_fig3 ~render:render_fig3
    ~columns:
      [
        "program"; "dataset"; "lang"; "best"; "best_quality"; "worst";
        "worst_quality";
      ]
    ~cells:(fun r ->
      let bname, bq = r.f3_best and wname, wq = r.f3_worst in
      [
        [
          r.f3_program; r.f3_dataset; Workload.lang_name r.f3_lang;
          bname; fcell bq; wname; fcell wq;
        ];
      ])
    (fun study -> fig3 (Lazy.force study));
  reg ~id:"taken" ~paper:"section 3"
    ~descr:"branch percent-taken stability across datasets"
    ~render:render_taken
    ~columns:[ "program"; "dataset"; "pct_taken"; "spread" ]
    ~cells:(fun r ->
      List.map
        (fun (ds, pct) -> [ r.tk_program; ds; fcell pct; fcell r.tk_spread ])
        r.tk_per_dataset)
    (fun study -> taken (Lazy.force study));
  reg ~id:"combine" ~paper:"section 3"
    ~descr:"scaled vs unscaled vs polling summary predictors"
    ~render:render_combine
    ~columns:
      ("program"
      :: List.map
           (fun p -> p.Predictor.p_name)
           (Predictor.summary_family ()))
    ~cells:(fun r ->
      [ r.cb_program :: List.map (fun (_, q) -> fcell q) r.cb_cols ])
    (fun study -> combine (Lazy.force study));
  reg ~id:"heuristics" ~paper:"section 3"
    ~descr:"structural (CFG-derived) heuristics vs profile feedback"
    ~render:render_heuristics
    ~columns:
      ("program" :: "dataset" :: "self"
      :: List.map
           (fun p -> p.Predictor.p_name)
           (Predictor.heuristic_family ()))
    ~cells:(fun r ->
      [
        r.h_program :: r.h_dataset :: fcell r.h_self
        :: List.map (fun (_, v) -> fcell v) r.h_cols;
      ])
    (fun study -> heuristics (Lazy.force study));
  reg ~id:"crossmode" ~paper:"section 3"
    ~descr:"compress <-> uncompress cross-mode prediction"
    ~render:render_crossmode
    ~columns:[ "predictor"; "target"; "dataset"; "quality" ]
    ~cells:(fun r ->
      [ [ r.cm_predictor; r.cm_target; r.cm_dataset; fcell r.cm_quality ] ])
    (fun study -> crossmode (Lazy.force study));
  reg ~id:"dynamic" ~paper:"extension"
    ~descr:"static self-profile vs 1-bit/2-bit hardware predictors"
    ~render:render_dynamic
    ~columns:[ "program"; "dataset"; "static_pct"; "onebit_pct"; "twobit_pct" ]
    ~cells:(fun r ->
      [
        [
          r.dy_program; r.dy_dataset; fcell r.dy_static_pct;
          fcell r.dy_onebit_pct; fcell r.dy_twobit_pct;
        ];
      ])
    (fun study -> dynamic (Lazy.force study));
  reg ~id:"dynsim" ~paper:"extension"
    ~descr:"trace-driven static vs 1-bit/2-bit/2-level/gshare predictors"
    ~render:render_dynsim
    ~columns:
      [
        "program"; "dataset"; "static_self_pct"; "static_prof_pct";
        "onebit_pct"; "twobit_pct"; "twolevel_pct"; "gshare_pct";
      ]
    ~cells:(fun r ->
      [
        r.dn_program :: r.dn_dataset :: fcell r.dn_static_self
        :: fcell r.dn_static_prof
        :: List.map (fun (_, v) -> fcell v) r.dn_schemes;
      ])
    (fun study -> dynsim (Lazy.force study));
  reg ~id:"predictability" ~paper:"extension"
    ~descr:"per-site predictability buckets from the branch trace"
    ~render:render_predictability
    ~columns:
      [
        "program"; "dataset"; "sites"; "always"; "mostly"; "history"; "hard";
        "hard_dyn_pct";
      ]
    ~cells:(fun r ->
      [
        [
          r.pd_program; r.pd_dataset; icell r.pd_sites; icell r.pd_always;
          icell r.pd_mostly; icell r.pd_history; icell r.pd_hard;
          fcell r.pd_hard_dyn_pct;
        ];
      ])
    (fun study -> predictability (Lazy.force study));
  reg ~id:"tournament" ~paper:"extension"
    ~descr:"predictor-zoo tournament: cold vs profile-warmed dynamic schemes"
    ~render:render_tournament
    ~columns:
      [
        "program"; "scheme"; "cold_pct"; "warm_pct"; "cold_mr"; "warm_mr";
        "cold_ipm"; "warm_ipm";
      ]
    ~cells:(fun r ->
      [
        [
          r.tn_program; r.tn_scheme; fcell r.tn_cold_pct; fcell r.tn_warm_pct;
          icell r.tn_cold_mr; icell r.tn_warm_mr; fcell r.tn_cold_ipm;
          fcell r.tn_warm_ipm;
        ];
      ])
    (fun study -> tournament (Lazy.force study));
  reg ~id:"h2p" ~paper:"extension"
    ~descr:"hard-to-predict branch class: how much profile warming closes"
    ~render:render_h2p
    ~columns:
      [ "program"; "h2p_sites"; "h2p_dyn_pct"; "scheme"; "cold_mr"; "warm_mr" ]
    ~cells:(fun r ->
      List.map
        (fun (name, cold, warm) ->
          [
            r.hp_program; icell r.hp_sites; fcell r.hp_dyn_pct; name;
            icell cold; icell warm;
          ])
        r.hp_schemes)
    (fun study -> h2p (Lazy.force study));
  reg ~id:"inline" ~paper:"extension"
    ~descr:"inlining ablation on call/return break density"
    ~render:render_inline
    ~columns:
      [ "program"; "dataset"; "base_ipb"; "inlined_ipb"; "calls_removed_pct" ]
    ~cells:(fun r ->
      [
        [
          r.il_program; r.il_dataset; fcell r.il_base_with_calls;
          fcell r.il_inlined_with_calls; fcell r.il_calls_removed_pct;
        ];
      ])
    (fun study -> inline_ablation (Lazy.force study));
  reg ~id:"gaps" ~paper:"section 3"
    ~descr:"distribution of instruction runs between breaks"
    ~render:render_gaps
    ~columns:[ "program"; "dataset"; "mean_gap"; "median_gap"; "p90_gap"; "skew" ]
    ~cells:(fun r ->
      [
        [
          r.gp_program; r.gp_dataset; fcell r.gp_mean; fcell r.gp_median;
          fcell r.gp_p90; fcell r.gp_skew;
        ];
      ])
    (fun study -> gaps (Lazy.force study));
  reg ~id:"switchsort" ~paper:"section 2"
    ~descr:"profile-guided switch cascade reordering"
    ~render:render_switchsort
    ~columns:
      [
        "program"; "dataset"; "base_insns"; "sorted_insns"; "saved_pct";
        "base_ipb"; "sorted_ipb";
      ]
    ~cells:(fun r ->
      [
        [
          r.ss_program; r.ss_dataset; icell r.ss_base_insns;
          icell r.ss_sorted_insns; fcell r.ss_insns_saved_pct;
          fcell r.ss_base_ipb; fcell r.ss_sorted_ipb;
        ];
      ])
    (fun study -> switchsort (Lazy.force study));
  reg ~id:"overhead" ~paper:"section 2 methodology"
    ~descr:"IFPROBBER instrumentation overhead and counter cross-check"
    ~render:render_overhead
    ~columns:
      [
        "program"; "dataset"; "clean_insns"; "instrumented_insns";
        "overhead_pct"; "counters_ok";
      ]
    ~cells:(fun r ->
      [
        [
          r.ov_program; r.ov_dataset; icell r.ov_clean_insns;
          icell r.ov_instrumented_insns; fcell r.ov_overhead_pct;
          string_of_bool r.ov_counters_match;
        ];
      ])
    (fun study -> overhead (Lazy.force study));
  reg ~id:"coverage" ~paper:"section 3"
    ~descr:"coverage/agreement correlation with prediction quality"
    ~render:render_coverage
    ~columns:[ "program"; "pairs"; "coverage_r"; "agreement_r" ]
    ~cells:(fun r ->
      [
        [
          r.co_program; icell r.co_pairs; fcell r.co_coverage_r;
          fcell r.co_agreement_r;
        ];
      ])
    (fun study -> coverage (Lazy.force study));
  reg ~id:"staleness" ~paper:"extension"
    ~descr:"stale database through the remap degradation chain"
    ~render:render_staleness
    ~columns:
      [
        "program"; "dataset"; "self_ipb"; "remap_ipb"; "heur_ipb"; "exact";
        "remapped"; "proof"; "heuristic"; "default";
      ]
    ~cells:(fun r ->
      [
        [
          r.st_program; r.st_dataset; fcell r.st_self; fcell r.st_remap;
          fcell r.st_heur; icell r.st_exact; icell r.st_remapped;
          icell r.st_proof; icell r.st_heuristic; icell r.st_default;
        ];
      ])
    (fun study -> staleness (Lazy.force study));
  reg ~id:"static_proof" ~paper:"extension"
    ~descr:"static branch proofs: coverage, accuracy, profile fallback"
    ~render:render_static_proof
    ~columns:
      [
        "program"; "sites"; "proved_taken"; "proved_not_taken";
        "loop_bounded"; "unknown"; "static_cover_pct"; "dyn_cover_pct";
        "accuracy_pct"; "profile_mr"; "proof_profile_mr";
      ]
    ~cells:(fun r ->
      [
        [
          r.pr_program; icell r.pr_sites; icell r.pr_taken;
          icell r.pr_not_taken; icell r.pr_loop; icell r.pr_unknown;
          fcell r.pr_static_cover; fcell r.pr_dyn_cover;
          fcell r.pr_accuracy; icell r.pr_profile_mr; icell r.pr_proof_mr;
        ];
      ])
    (fun study -> static_proof (Lazy.force study))

let registry () = Experiment.all ()

let render_all study =
  let study = lazy study in
  String.concat "\n\n"
    (List.map (fun e -> Experiment.render_text e study) (registry ()))
