(** Glue between the branch-trace subsystem ({!Fisher92_trace.Trace})
    and the study: key computation, capture through the VM's
    [on_branch] hook, the load-or-record store round-trip, and the one
    shared, memoized replay per study ({!shared}) that the [dynamic],
    [dynsim], [predictability], [tournament] and [h2p] experiments all
    read, with the codec of its [.replay] store entries.

    Keys are {!Study.store_key}'s, as for {!Study_cache}: the workload
    name, the {!Fisher92_analysis.Fingerprint.content_hash} of the
    measured build, and the FNV-1a dataset-contents hash — so a
    recompiled program, an edited constant or a regenerated dataset
    silently invalidates its stored traces.  Functions taking
    [?fingerprint] and [?dshash] compute those hashes when omitted; a
    caller that already holds them passes them down. *)

module Trace = Fisher92_trace.Trace
module Dynamic = Fisher92_predict.Dynamic

type obtained = {
  reader : Trace.Reader.t;
  from_store : bool;  (** served from the on-disk store, not re-executed *)
}

val record :
  ?fingerprint:string ->
  ?dshash:string ->
  ir:Fisher92_ir.Program.t ->
  program:string ->
  Fisher92_workloads.Workload.dataset ->
  Trace.Writer.t
(** Execute the dataset once with a trace writer attached to
    [on_branch].  Does not touch the store. *)

val obtain :
  ?fingerprint:string ->
  ?dshash:string ->
  ir:Fisher92_ir.Program.t ->
  program:string ->
  Fisher92_workloads.Workload.dataset ->
  obtained
(** The trace for this (build, dataset) key: loaded from the store when
    present and intact, otherwise captured by running the VM (and saved
    back, best-effort; [FISHER92_NO_TRACE] bypasses the store in both
    directions).  The replayed stream is identical either way. *)

val warm_prediction : Study.loaded -> Fisher92_predict.Prediction.t
(** The profile-warming vector for a workload: an IFPROB database built
    from {e all} of its datasets' profiles (identity stamped with the
    build's fingerprint and site keys), pulled through the
    {!Fisher92_predict.Remap} degradation chain — so the exact tier
    serves here, and the same call on a stale database would degrade
    through remapped/proof/heuristic tiers instead of crashing. *)

(** {2 Tallies} *)

type tally = {
  site_correct : int array;  (** per-site correct predictions *)
  site_incorrect : int array;
}
(** What one simulator's replay left: its per-site verdicts, everything
    the predictor sections read.  Read-only once built. *)

val tally : Dynamic.t -> tally
(** A simulator's tallies (copied). *)

val correct : tally -> int
(** Correct predictions over every site. *)

val incorrect : tally -> int

val percent_correct : tally -> float
(** As {!Dynamic.percent_correct} on the simulator it came from. *)

type raced = {
  rc_scheme : Dynamic.scheme;
  rc_cold : tally;  (** simulated from cold state *)
  rc_warm : tally;  (** simulated from profile-warmed state *)
}

val zoo_schemes : unit -> Dynamic.scheme list
(** Every scheme of {!Fisher92_predict.Predictor.zoo} (smith, 2-bit,
    2-level, gshare, bimode, tage), in registration order. *)

(** {2 The shared replay} *)

type shared = {
  sh_loaded : Study.loaded;
  sh_onebit : tally;  (** cold 1-bit ({!Dynamic.Last_direction}) *)
  sh_races : raced list;  (** cold and warm, in {!zoo_schemes} order *)
  sh_from_store : bool;  (** read from a replay entry, not replayed *)
}

val replay_key :
  ?rules:string ->
  warm:Fisher92_predict.Prediction.t ->
  Dynamic.scheme list ->
  string list
(** The replay-specific half of a shared replay's store key (the trace
    key is the other half): the update rules' digest ([rules], default
    {!Dynamic.rules_digest}), the FNV-1a digest of the warm vector, and
    every simulator's mode and full {!Dynamic.scheme_spec} in tally
    order — cold 1-bit, then each of [schemes] cold and warm.  It is
    the [extra] part of the entry's {!Fisher92_util.Store.key}. *)

val replay_kind : Fisher92_util.Store.kind
(** [.replay] entries: the shared replay's tallies, beside the traces
    under the same knobs. *)

val render_replay : Fisher92_util.Store.key -> tally list -> string
(** An entry's text: a [tallies] section with one line of [2 * n_sites]
    canonical decimals per tally, a (correct, incorrect) pair per site.
    Each tally must hold at least [n_sites] counts; only the first
    [n_sites] are kept. *)

val read_replay : tally list Fisher92_util.Store.reader
(** The strict inverse of {!render_replay}, for
    {!Fisher92_util.Store.find}. *)

val shared : Study.t -> shared list
(** One per loaded workload, in study order: the first dataset's trace
    ({!obtain}) replayed through every scheme of {!zoo_schemes} twice
    over one decode — once cold and once seeded with {!warm_prediction}
    — plus a cold 1-bit simulator riding the same decode, on the
    batched run-level path ({!Trace.Reader.iter_runs} into
    {!Dynamic.hook_batch}, bit-identical to streaming replay and
    several times faster).  Each workload's tallies are read from its
    [.replay] entry ({!replay_kind}) when one exists under the trace
    key plus {!replay_key}; otherwise the trace is obtained and
    replayed, and the tallies saved back (best-effort).  Either way the
    tallies are identical, so a rule edit, a different roster or a
    different profile can never be served stale numbers.  The
    workloads fan out over a {!Fisher92_util.Pool} and merge by index,
    so the result is identical to a sequential run.  Memoized on the
    study's physical identity — every
    call on one [Study.t] returns the same replay, built once; a
    separately loaded study gets its own.  The memo holds one study at a
    time, through an ephemeron, so it keeps nothing alive past its
    study.  Safe to call from several domains.  Callers only read the
    tallies: writing to their arrays would corrupt every later
    reader. *)

val shared_builds : unit -> int
(** How many shared replays {!shared} has built (from the store or by
    replaying) in this process. *)

val cold : shared -> Dynamic.scheme -> tally
(** The shared replay's cold tallies for a scheme: 1-bit or a zoo
    scheme.  @raise Invalid_argument for any other scheme. *)
