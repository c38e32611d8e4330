open Fisher92_util
module Profile = Fisher92_profile.Profile
module Dynamic = Fisher92_predict.Dynamic
module Vm = Fisher92_vm.Vm
module Heuristic = Fisher92_predict.Heuristic
module Sitestats = Fisher92_metrics.Sitestats
module Measure = Fisher92_metrics.Measure
module Table = Fisher92_report.Table

type cls = Monotone | Skewed | History | Hard | Mixed

let all_classes = [ Monotone; Skewed; History; Hard; Mixed ]

let cls_name = function
  | Monotone -> "monotone"
  | Skewed -> "skewed"
  | History -> "history"
  | Hard -> "hard"
  | Mixed -> "mixed"

type t = {
  ch_sites : int;
  ch_covered : int;
  ch_dyn : int;
  ch_taken_pct : float;
  ch_skew : float;
  ch_entropy : float;
  ch_floor_pct : float;
  ch_sim_dyn : int;
  ch_gshare_pct : float;
  ch_h2p_sites : int;
  ch_h2p_share : float;
  ch_heur_pct : float;
  ch_class : cls;
}

(* Lin & Tarsa's hard-to-predict shape, matching the h2p experiment: a
   site that is neither statically biased (under 95% one direction) nor
   history-predictable (under 90% gshare accuracy). *)
let h2p_bias = 0.95
let h2p_acc = 0.90

(* Class thresholds (percent / share), placed against the default
   sweep's metric distribution (floor quartiles ~19/24/29, gshare
   quartiles ~70/78/84, h2p-share quartiles ~0.44/0.61/0.83): the
   floor cuts isolate the strongly-biased region, the history cut asks
   the gshare miss rate to beat the static floor by a clear margin
   (periodic/correlated structure that no static assignment can
   exploit), and the hard cut asks for a solid majority of dynamic
   branches at H2P sites. *)
let monotone_floor = 12.0
let skewed_floor = 20.0
let history_recovery = 0.75
let hard_share = 0.70

let classify ~dyn ~floor_pct ~sim_dyn ~gshare_pct ~h2p_share =
  if dyn = 0 then Monotone
  else if floor_pct <= monotone_floor then Monotone
  else if floor_pct <= skewed_floor then Skewed
  else if sim_dyn > 0 && 100.0 -. gshare_pct <= history_recovery *. floor_pct
  then History
  else if h2p_share >= hard_share then Hard
  else Mixed

let of_counts ~profile ~site_correct ~site_incorrect ~opinions =
  let n = Profile.n_sites profile in
  if
    Array.length site_correct <> n
    || Array.length site_incorrect <> n
    || Array.length opinions <> n
  then
    invalid_arg
      (Printf.sprintf
         "Charz.of_counts: %d sites but %d/%d simulation and %d opinion \
          entries"
         n
         (Array.length site_correct)
         (Array.length site_incorrect)
         (Array.length opinions));
  let s = Sitestats.summarize profile in
  let dyn = s.Sitestats.dyn_branches in
  let floor =
    Array.fold_left ( + ) 0
      (Array.mapi
         (fun k e -> min profile.Profile.taken.(k) (e - profile.Profile.taken.(k)))
         profile.Profile.encountered)
  in
  let floor_pct = Stats.percent floor dyn in
  let sim_correct = Array.fold_left ( + ) 0 site_correct in
  let sim_incorrect = Array.fold_left ( + ) 0 site_incorrect in
  let sim_dyn = sim_correct + sim_incorrect in
  let gshare_pct = Stats.percent sim_correct sim_dyn in
  let h2p_sites = ref 0 and h2p_dyn = ref 0 and heur_dyn = ref 0 in
  for k = 0 to n - 1 do
    let e = profile.Profile.encountered.(k) in
    if e > 0 then begin
      if opinions.(k) <> None then heur_dyn := !heur_dyn + e;
      let tk = profile.Profile.taken.(k) in
      let bias = float_of_int (max tk (e - tk)) /. float_of_int e in
      let sim = site_correct.(k) + site_incorrect.(k) in
      let hist_ok =
        sim = 0
        || float_of_int site_correct.(k) /. float_of_int sim >= h2p_acc
      in
      if bias < h2p_bias && not hist_ok then begin
        incr h2p_sites;
        h2p_dyn := !h2p_dyn + e
      end
    end
  done;
  let h2p_share = Stats.ratio !h2p_dyn dyn in
  {
    ch_sites = s.Sitestats.sites;
    ch_covered = s.Sitestats.covered;
    ch_dyn = dyn;
    ch_taken_pct = Stats.percent s.Sitestats.dyn_taken dyn;
    ch_skew = s.Sitestats.skew;
    ch_entropy = s.Sitestats.entropy;
    ch_floor_pct = floor_pct;
    ch_sim_dyn = sim_dyn;
    ch_gshare_pct = gshare_pct;
    ch_h2p_sites = !h2p_sites;
    ch_h2p_share = h2p_share;
    ch_heur_pct = Stats.percent !heur_dyn dyn;
    ch_class =
      classify ~dyn ~floor_pct ~sim_dyn ~gshare_pct ~h2p_share;
  }

let gshare_scheme = Dynamic.Gshare { history_bits = 12 }

let characterize (loaded : Fisher92.Study.loaded) =
  let profile =
    Profile.sum (List.map (fun r -> r.Measure.profile) loaded.Fisher92.Study.runs)
  in
  let n = Profile.n_sites profile in
  let site_correct, site_incorrect =
    match
      loaded.Fisher92.Study.workload.Fisher92_workloads.Workload.w_datasets
    with
    | [] -> (Array.make n 0, Array.make n 0)
    | ds :: _ ->
      (* gshare rides the VM's branch hook: one execution of the first
         dataset, no trace captured; inline tallies equal a replay of
         the captured stream bit for bit. *)
      let sim =
        Dynamic.simulate gshare_scheme ~n_sites:n (fun hook ->
            let config = { Vm.default_config with on_branch = Some hook } in
            ignore
              (Fisher92.Study.execute loaded.Fisher92.Study.ir ds ~config ()
                : Vm.result))
      in
      (Dynamic.site_correct sim, Dynamic.site_incorrect sim)
  in
  let opinions = Heuristic.ball_larus_opinions loaded.Fisher92.Study.ir in
  of_counts ~profile ~site_correct ~site_incorrect ~opinions

let header =
  [
    "program"; "class"; "sites"; "cov"; "dyn br"; "taken"; "skew"; "entropy";
    "floor"; "gshare"; "h2p"; "h2p shr"; "heur cov";
  ]

let row ~name t =
  [
    name;
    cls_name t.ch_class;
    string_of_int t.ch_sites;
    string_of_int t.ch_covered;
    Table.inum t.ch_dyn;
    Table.pct t.ch_taken_pct;
    Printf.sprintf "%.3f" t.ch_skew;
    Printf.sprintf "%.3f" t.ch_entropy;
    Table.pct t.ch_floor_pct;
    (if t.ch_sim_dyn = 0 then "-" else Table.pct t.ch_gshare_pct);
    string_of_int t.ch_h2p_sites;
    Printf.sprintf "%.3f" t.ch_h2p_share;
    Table.pct t.ch_heur_pct;
  ]
