(** The common predictor interface and registry.

    Every way this reproduction assigns a static direction to a branch
    site — the target's own profile, a summary of other datasets'
    profiles, a structural heuristic, the stale-database degradation
    chain — is one {!t}: a name, a provenance tag saying what kind of
    evidence it consumes, and a [predict] function from a {!context} to
    a {!Prediction.t}.

    Experiments iterate {!all} (or a provenance slice such as
    {!heuristic_family}) instead of pattern-matching the five predictor
    modules, so adding a predictor is one {!register} call: it then
    appears in the heuristics table, is exercised by the registry
    tests, and is available to every future comparison. *)

(** What a predictor looks at.  Build the record with {!context};
    fields a predictor does not consume may be left empty. *)
type context = {
  cx_ir : Fisher92_ir.Program.t;  (** the current build *)
  cx_db : Fisher92_profile.Db.t option;
      (** a profile database, possibly recorded against an older build
          (the remap chain's input) *)
  cx_profiles : Fisher92_profile.Profile.t list;
      (** training profiles: the target's own run for [self], the other
          datasets' runs for the summary predictors *)
}

val context :
  ?db:Fisher92_profile.Db.t ->
  ?profiles:Fisher92_profile.Profile.t list ->
  Fisher92_ir.Program.t ->
  context

(** The kind of evidence a predictor consumes. *)
type provenance =
  | Profile_direct  (** counters of the run(s) being predicted *)
  | Profile_summary  (** counters of {e other} runs, merged *)
  | Structural  (** the compiled program only, never a run *)
  | Proof
      (** sound static analysis of the compiled program: directions the
          branch-proof pass ({!Fisher92_analysis.Brclass}) established
          hold on {e every} run, unlike a [Structural] guess *)
  | Degradation  (** database + build, best evidence per site *)

val provenance_name : provenance -> string

type t = {
  p_name : string;  (** registry key, e.g. ["loop-struct"] *)
  p_column : string;  (** short table-column label, e.g. ["LOOP"] *)
  p_provenance : provenance;
  p_descr : string;
  p_predict : context -> Prediction.t;
}

val predict : t -> context -> Prediction.t

(** {2 Registry} *)

val register : t -> unit
(** @raise Invalid_argument on a duplicate name. *)

val all : unit -> t list
(** Every registered predictor, in registration order.  The built-in
    registrations cover [self], [profile], the three summary strategies
    ([scaled], [unscaled], [polling]), the structural heuristic family,
    and the [remap-chain]. *)

val find : string -> t option

val by_provenance : provenance -> t list

val heuristic_family : unit -> t list
(** The structural predictors, in the heuristics table's column order. *)

val summary_family : unit -> t list
(** The combine-comparison predictors (scaled, unscaled, polling). *)

(** {2 Dynamic-scheme zoo}

    The hardware side of the paper's comparison lives in the same
    registry file: every {!Fisher92_predict.Dynamic.scheme} the
    tournament races — each sharing [Dynamic]'s
    [simulate]/[reset_counts]/per-site-tally surface — is one
    {!dynamic_spec}, so the tournament experiment, [fisher92 trace sim
    --scheme] and the benchmark's replay workloads derive their rosters
    from one list. *)

type dynamic_spec = {
  d_name : string;  (** registry key, e.g. ["gshare"] *)
  d_scheme : Dynamic.scheme;
  d_descr : string;
}

val register_dynamic : dynamic_spec -> unit
(** @raise Invalid_argument on a duplicate name. *)

val zoo : unit -> dynamic_spec list
(** Every registered dynamic scheme, in registration order.  Built-ins:
    [smith], [2-bit], [2-level], [gshare], [bimode], [tage]. *)

val find_dynamic : string -> dynamic_spec option
