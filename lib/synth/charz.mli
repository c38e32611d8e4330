(** Workload characterization: per-workload predictability metrics and
    class binning, in the vocabulary of "Workload Characterization for
    Branch Predictability" and Lin & Tarsa's "Branch Prediction Is Not a
    Solved Problem".

    The metrics come from two sources: the branch {e profile} (summed
    over every dataset of the workload — static site counts, dynamic
    branch counts, taken-rate skew, branch entropy, the best static
    miss-rate floor) and a {e cold gshare simulation} run inline on the
    first dataset (how much of the remaining unpredictability a history
    predictor recovers, and which sites are hard-to-predict).
    [of_counts] is the pure core over raw counters — unit-testable on
    hand-built profiles — and [characterize] the study/VM wrapper. *)

(** Predictability classes, in rendering order.  The thresholds are
    placed against the default sweep's observed metric distribution (see
    [charz.ml]); binning is ordered, first match wins. *)
type cls =
  | Monotone
      (** static floor at most 12%: branches nearly always go one way,
          profile prediction is essentially solved *)
  | Skewed  (** static floor at most 20%: profile prediction does well *)
  | History
      (** a cold gshare's miss rate beats the static floor by a clear
          margin (at most 0.75x): inter-branch correlation or
          periodicity that no static assignment can exploit *)
  | Hard
      (** 70%+ of dynamic branches sit at H2P sites (under 95% biased
          {e and} under 90% gshare accuracy — Lin & Tarsa's shape) *)
  | Mixed  (** everything else *)

val all_classes : cls list
val cls_name : cls -> string

type t = {
  ch_sites : int;  (** static conditional-branch sites *)
  ch_covered : int;  (** sites executed at least once *)
  ch_dyn : int;  (** dynamic conditional branches, all datasets *)
  ch_taken_pct : float;
  ch_skew : float;  (** dynamic-weighted per-site skew, 0..1 *)
  ch_entropy : float;  (** dynamic-weighted per-site entropy, bits *)
  ch_floor_pct : float;
      (** best static miss rate: what the profile's own majority
          directions miss, in percent *)
  ch_sim_dyn : int;  (** dynamic branches in the gshare simulation *)
  ch_gshare_pct : float;  (** cold gshare/12 percent correct; 0 if none *)
  ch_h2p_sites : int;
  ch_h2p_share : float;  (** dynamic-branch share at H2P sites, 0..1 *)
  ch_heur_pct : float;
      (** share of dynamic branches at sites where the Ball-Larus family
          has an opinion, in percent *)
  ch_class : cls;
}

val of_counts :
  profile:Fisher92_profile.Profile.t ->
  site_correct:int array ->
  site_incorrect:int array ->
  opinions:bool option array ->
  t
(** Pure characterization from raw counters.  [site_correct]/
    [site_incorrect] are a gshare simulation's per-site tallies (all
    zero when no simulation ran — history-dependent bins then stay
    conservative); [opinions] is
    {!Fisher92_predict.Heuristic.ball_larus_opinions}.
    @raise Invalid_argument on array length mismatch. *)

val gshare_scheme : Fisher92_predict.Dynamic.scheme
(** The classification reference simulator: [Gshare {history_bits = 12}],
    the same configuration the [predictability] and [h2p] experiments
    use. *)

val characterize : opinions:bool option array -> Fisher92.Study.loaded -> t
(** Characterize a loaded workload: profile summed over all its runs,
    gshare simulated as the VM's [on_branch] hook on one execution of
    the first dataset (no trace is captured or stored; the tallies equal
    a replay of that dataset's trace bit for bit).  [opinions] is
    {!Fisher92_predict.Heuristic.ball_larus_opinions} of the measured
    build, which the sweep also turns into its heuristic prediction. *)

val columns : (string * t) Fisher92_report.Table.column list
(** The [synth charz] table: one line per named characterization, text
    only. *)
