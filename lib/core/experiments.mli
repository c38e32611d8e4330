(** Every table and figure of the paper, and the reproduction's own
    extensions, computed from a loaded study.  Each experiment returns
    structured rows (for tests and further analysis); its registry entry
    ({!registry}) declares the columns once, and
    {!Experiment.render_text} and {!Experiment.render_tsv} render them.

    Paper references:
    - Table 1: dynamic dead code eliminated by global DCE
    - Table 2: the program sample base
    - Table 3: instructions/break of the low-variability FORTRAN programs
    - Figure 1a/1b: instrs per break, no prediction, ± call/return breaks
    - Figure 2a/2b: instrs per break, self vs scaled-other prediction
    - Figure 3a/3b: best and worst single-dataset predictors
    - §3 informal: percent-taken stability, combination strategies,
      heuristics, compress↔uncompress, gaps between breaks, coverage
    - §2: switch reordering and instrumentation overhead
    - extensions: static vs dynamic predictors, the predictor zoo and
      its hard-to-predict class, inlining, stale profiles, static
      proofs *)

type fig1_row = {
  f1_program : string;
  f1_dataset : string;
  f1_lang : Fisher92_workloads.Workload.lang;
  f1_no_calls : float;  (** instrs/break, calls+returns not counted *)
  f1_with_calls : float;  (** instrs/break, direct calls+returns counted *)
}

val fig1 : Study.t -> fig1_row list

type fig2_row = {
  f2_program : string;
  f2_dataset : string;
  f2_lang : Fisher92_workloads.Workload.lang;
  f2_self : float;  (** best possible: dataset predicts itself *)
  f2_others : float option;  (** scaled sum of the other datasets *)
}

val fig2 : Study.t -> fig2_row list
(** Only workloads with ≥2 datasets (the single-dataset FORTRAN programs
    are Table 3's subject). *)


type fig3_row = {
  f3_program : string;
  f3_dataset : string;
  f3_lang : Fisher92_workloads.Workload.lang;
  f3_best : string * float;  (** best single other dataset, quality ratio *)
  f3_worst : string * float;
}

val fig3 : Study.t -> fig3_row list

type table1_row = {
  t1_program : string;
  t1_dead_pct : float;
      (** % of the measured build's dynamic instructions that vanish when
          global DCE is enabled *)
}

val table1 : Study.t -> table1_row list

val render_table2 : unit -> string
(** The program/dataset inventory (needs no study). *)

type table2_row = {
  t2_lang : Fisher92_workloads.Workload.lang;
  t2_program : string;
  t2_models : string;  (** the paper program this workload stands in for *)
  t2_dataset : string;
  t2_descr : string;
  t2_first : bool;  (** the workload's first dataset *)
}

val table2 : unit -> table2_row list
(** The inventory as rows, one per dataset (needs no study). *)

type table3_row = { t3_program : string; t3_dataset : string; t3_ipb : float }

val table3 : Study.t -> table3_row list
(** Self-predicted instrs/break for the FORTRAN programs outside the
    spice cross-prediction study. *)


type taken_row = {
  tk_program : string;
  tk_per_dataset : (string * float) list;  (** % taken per dataset *)
  tk_spread : float;  (** max - min, the paper's "remarkably constant" *)
}

val taken : Study.t -> taken_row list

type combine_row = {
  cb_program : string;
  cb_cols : (string * float) list;
      (** mean quality ratio over targets, per registered summary
          predictor ({!Fisher92_predict.Predictor.summary_family}), keyed
          by predictor name *)
}

val combine : Study.t -> combine_row list

type heuristic_row = {
  h_program : string;
  h_dataset : string;
  h_self : float;  (** instrs/break, self profile *)
  h_cols : (string * float) list;
      (** instrs/break per registered structural predictor
          ({!Fisher92_predict.Predictor.heuristic_family}), keyed by
          predictor name *)
}

val heuristics : Study.t -> heuristic_row list

type crossmode_row = {
  cm_predictor : string;  (** "compress" or "uncompress" (accumulated) *)
  cm_target : string;
  cm_dataset : string;
  cm_quality : float;  (** fraction of self-prediction achieved *)
}

val crossmode : Study.t -> crossmode_row list
(** The paper's "using the data from one to predict the other is a very
    bad idea". *)


type dynamic_row = {
  dy_program : string;
  dy_dataset : string;
  dy_static_pct : float;  (** self-profile static prediction, % correct *)
  dy_onebit_pct : float;
  dy_twobit_pct : float;
}

val dynamic : Study.t -> dynamic_row list
(** Reads 1-bit and 2-bit off the cold simulators of the study's shared
    replay ({!Tracing.shared}) of each workload's first-dataset trace;
    no VM run of its own. *)


val dynsim_schemes : unit -> Fisher92_predict.Dynamic.scheme list
(** The fixed scheme list of the [dynsim] experiment: 1-bit, 2-bit,
    2-level/10, gshare/12. *)

type dynsim_row = {
  dn_program : string;
  dn_dataset : string;
  dn_static_self : float;  (** self-profile static prediction, % correct *)
  dn_static_prof : float;
      (** static prediction from the accumulated profile of every
          dataset, % correct *)
  dn_schemes : (string * float) list;
      (** (scheme name, % correct), in {!dynsim_schemes} order *)
}

val dynsim : Study.t -> dynsim_row list
(** Trace-driven: every scheme of {!dynsim_schemes}, read off the cold
    simulators of the study's shared replay ({!Tracing.shared}) of each
    workload's first-dataset trace. *)


type predictability_row = {
  pd_program : string;
  pd_dataset : string;
  pd_sites : int;  (** branch sites executed at least once *)
  pd_always : int;  (** one direction only *)
  pd_mostly : int;  (** >= 95% biased to one direction *)
  pd_history : int;  (** not biased, but gshare/12 gets >= 90% right *)
  pd_hard : int;  (** the rest *)
  pd_hard_dyn_pct : float;  (** % of dynamic branches at hard sites *)
}

val predictability : Study.t -> predictability_row list
(** Buckets every covered site of the first dataset by how it can be
    predicted, from the per-site accuracy of the shared replay's cold
    gshare/12 ({!Tracing.shared}). *)


type tournament_row = {
  tn_program : string;
  tn_scheme : string;
  tn_cold_pct : float;  (** % correct, cold start *)
  tn_warm_pct : float;  (** % correct, profile-warmed start *)
  tn_cold_mr : int;  (** mispredicts, cold *)
  tn_warm_mr : int;  (** mispredicts, warmed *)
  tn_cold_ipm : float;  (** instructions per mispredict, cold *)
  tn_warm_ipm : float;
}

val tournament : Study.t -> tournament_row list
(** The head-to-head the paper argues for: every zoo scheme replayed
    over each workload's first-dataset trace twice — cold, and with its
    counters seeded from the accumulated profile database through the
    remap chain ({!Tracing.warm_prediction}) — both read off the
    study's shared replay ({!Tracing.shared}).  One row per
    (workload, scheme). *)


type h2p_row = {
  hp_program : string;
  hp_sites : int;  (** H2P sites (of the covered sites) *)
  hp_dyn_pct : float;  (** their share of dynamic branches *)
  hp_schemes : (string * int * int) list;
      (** (scheme, cold mispredicts, warm mispredicts) at H2P sites,
          in {!Tracing.zoo_schemes} order *)
}

val h2p : Study.t -> h2p_row list
(** The hard-to-predict branch class of Lin and Tarsa ("Branch
    Prediction Is Not a Solved Problem"): covered sites under 95%
    biased that cold gshare/12 still gets under 90% right — few static
    sites, outsized mispredict share — and how much profile warming
    closes the gap there, per zoo scheme. *)


type inline_row = {
  il_program : string;
  il_dataset : string;
  il_base_with_calls : float;  (** unpredicted i/break incl. call breaks *)
  il_inlined_with_calls : float;  (** same, after the inlining pass *)
  il_calls_removed_pct : float;  (** dynamic direct calls eliminated *)
}

val inline_ablation : Study.t -> inline_row list

val registry : unit -> Experiment.t list
(** Every registered experiment in paper order.  Referencing this (rather
    than {!Experiment.all} directly) forces this module's registrations
    to run — OCaml only initializes linked modules, and a driver that
    never touched [Experiments] would see an empty registry. *)

val render_all : Study.t -> string
(** Every registered experiment in paper order, ready for stdout. *)

type gaps_row = {
  gp_program : string;
  gp_dataset : string;
  gp_mean : float;  (** mean instructions between breaks (self-predicted) *)
  gp_median : float;
  gp_p90 : float;
  gp_skew : float;  (** mean/median; > 1 = long runs behind a small typical gap *)
}

val gaps : Study.t -> gaps_row list
(** Paper §3: "the distribution of runs of instructions between
    mispredicted branches will not be constant ... branches in real
    programs are not evenly spaced."  Re-executes each workload's first
    dataset with its self prediction and summarizes the gap histogram. *)


type switchsort_row = {
  ss_program : string;
  ss_dataset : string;
  ss_base_insns : int;
  ss_sorted_insns : int;  (** after hottest-first switch reordering *)
  ss_insns_saved_pct : float;
  ss_base_ipb : float;  (** self-predicted instrs/break, source order *)
  ss_sorted_ipb : float;  (** same, probability order *)
}

val switchsort : Study.t -> switchsort_row list
(** Paper §2 (multiple destination branches): a feedback compiler should
    order cascades by probability.  Profiles the first dataset, recompiles
    with hottest-first switch cases, and re-measures.  Only workloads
    whose programs contain switches are reported. *)


type overhead_row = {
  ov_program : string;
  ov_dataset : string;
  ov_clean_insns : int;
  ov_instrumented_insns : int;
  ov_overhead_pct : float;
      (** extra instructions from the in-program counters — the
          perturbation the paper's two-binary methodology existed to
          factor out *)
  ov_counters_match : bool;
      (** do the in-program counters agree exactly with the simulator's
          external profile? *)
}

val overhead : Study.t -> overhead_row list
(** Build each workload's IFPROBBER-instrumented binary (real counter
    updates before every conditional branch), run its first dataset, and
    compare against the clean build. *)


type coverage_row = {
  co_program : string;
  co_pairs : int;
  co_coverage_r : float;  (** Pearson r of predictor-coverage vs quality *)
  co_agreement_r : float;
      (** Pearson r of shared-direction agreement vs quality *)
}

val coverage : Study.t -> coverage_row list
(** The paper's "Coverage" quantification attempt (§3's informal
    observations): correlate two candidate emphasis measures with
    cross-prediction quality, per multi-dataset program. *)


type stale_row = {
  st_program : string;
  st_dataset : string;
  st_self : float;  (** fresh self-prediction on the mutated build *)
  st_remap : float;
      (** stale database fed through the remap → heuristic → default
          degradation chain ({!Fisher92_predict.Remap}) *)
  st_heur : float;  (** bare structural heuristic, no profile at all *)
  st_exact : int;  (** provenance counts over the mutated build's sites *)
  st_remapped : int;
  st_proof : int;  (** sites decided by the static branch-proof pass *)
  st_heuristic : int;
  st_default : int;
}

val mutate_source :
  Fisher92_minic.Ast.program -> Fisher92_minic.Ast.program
(** The staleness experiment's single-site source mutation: insert one
    never-taken guard branch at the top of the entry function, shifting
    every later site index (exposed for tests). *)

val staleness : Study.t -> stale_row list
(** Staleness extension: profile every dataset against the measured
    build, mutate the source by one branch site, recompile, and compare
    the stale database remapped through the degradation chain against
    the bare structural heuristic on the first dataset.  The paper
    sidesteps this hazard by recompiling before profiling; a production
    feedback loop cannot. *)


type proof_row = {
  pr_program : string;
  pr_sites : int;  (** static conditional-branch sites *)
  pr_taken : int;  (** proved always-taken *)
  pr_not_taken : int;  (** proved never-taken *)
  pr_loop : int;  (** counted loops with proved trip bounds *)
  pr_unknown : int;
  pr_static_cover : float;  (** % of sites with any classification *)
  pr_dyn_cover : float;
      (** % of dynamic branches executed at classified sites *)
  pr_accuracy : float;
      (** % of dynamic branches at proof-predicted sites that went the
          predicted way (proved directions are 100% by soundness; loop
          stay-predictions pay one exit per activation) *)
  pr_profile_mr : int;
      (** leave-one-out cross-prediction mispredicts, unprofiled sites
          defaulting to not-taken, summed over all target datasets *)
  pr_proof_mr : int;
      (** same, with proved directions filling the unprofiled sites —
          never worse than [pr_profile_mr] by construction *)
}

val static_proof : Study.t -> proof_row list
(** Static-proof extension: classify every branch site of every
    measured build with {!Fisher92_analysis.Brclass} and quantify what
    a profile-free sound analysis contributes: coverage, dynamic
    accuracy, and the mispredict delta when proofs back up a profile
    recorded on other datasets. *)

