(** Glue between the branch-trace subsystem ({!Fisher92_trace.Trace})
    and the study: key computation, capture through the VM's
    [on_branch] hook, the load-or-record store round-trip, and the one
    shared, memoized replay per study ({!shared}) that the [dynamic],
    [dynsim], [predictability], [tournament] and [h2p] experiments all
    read.

    Keys mirror {!Study_cache}: the workload name, the structural
    {!Fisher92_analysis.Fingerprint.program_hash} of the measured build,
    and the FNV-1a dataset-contents hash — so a recompiled program or a
    regenerated dataset silently invalidates its stored traces. *)

module Trace = Fisher92_trace.Trace
module Dynamic = Fisher92_predict.Dynamic

type obtained = {
  reader : Trace.Reader.t;
  from_store : bool;  (** served from the on-disk store, not re-executed *)
}

val record :
  ir:Fisher92_ir.Program.t ->
  program:string ->
  Fisher92_workloads.Workload.dataset ->
  Trace.Writer.t
(** Execute the dataset once with a trace writer attached to
    [on_branch].  Does not touch the store. *)

val obtain :
  ?store:bool ->
  ir:Fisher92_ir.Program.t ->
  program:string ->
  Fisher92_workloads.Workload.dataset ->
  obtained
(** The trace for this (build, dataset) key: loaded from the store when
    present and intact, otherwise captured by running the VM (and saved
    back, best-effort).  [~store:false] bypasses the store in both
    directions.  The replayed stream is identical either way. *)

val warm_prediction : Study.loaded -> Fisher92_predict.Prediction.t
(** The profile-warming vector for a workload: an IFPROB database built
    from {e all} of its datasets' profiles (identity stamped with the
    build's fingerprint and site keys), pulled through the
    {!Fisher92_predict.Remap} degradation chain — so the exact tier
    serves here, and the same call on a stale database would degrade
    through remapped/proof/heuristic tiers instead of crashing. *)

type raced = {
  rc_scheme : Dynamic.scheme;
  rc_cold : Dynamic.t;  (** simulated from cold state *)
  rc_warm : Dynamic.t;  (** simulated from profile-warmed state *)
}

val tournament_study :
  ?domains:int ->
  ?store:bool ->
  schemes:Dynamic.scheme list ->
  Study.t ->
  (Study.loaded * obtained * raced list) list
(** For every loaded workload: obtain the trace of its {e first}
    dataset and replay it through every scheme twice over one decode —
    once cold and once seeded with {!warm_prediction} — on the batched
    run-level path ({!Trace.Reader.iter_runs} into
    {!Dynamic.hook_batch}, bit-identical to streaming replay and several
    times faster).  Fans the per-workload work over a
    {!Fisher92_util.Pool}; results are merged by index, so the output
    is deterministic and identical to a sequential run.  Unmemoized:
    every call replays (and consults the store) afresh. *)

val zoo_schemes : unit -> Dynamic.scheme list
(** Every scheme of {!Fisher92_predict.Predictor.zoo} (smith, 2-bit,
    2-level, gshare, bimode, tage), in registration order. *)

(** {2 The shared replay} *)

type shared = {
  sh_loaded : Study.loaded;
  sh_onebit : Dynamic.t;  (** cold 1-bit ({!Dynamic.Last_direction}) *)
  sh_races : raced list;  (** cold and warm, in {!zoo_schemes} order *)
}

val shared : Study.t -> shared list
(** One per loaded workload, in study order: {!tournament_study} over
    {!zoo_schemes} plus a cold 1-bit simulator riding the same decode.
    Memoized on the study's physical identity — every call on one
    [Study.t] returns the same replay, built once; a separately loaded
    study gets its own.  The memo holds one study at a time, through an
    ephemeron, so it keeps nothing alive past its study.  Safe to call
    from several domains.  Callers only read the simulators: stepping
    or {!Dynamic.reset_counts} on them would corrupt every later
    reader. *)

val shared_builds : unit -> int
(** How many shared replays {!shared} has built in this process. *)

val cold : shared -> Dynamic.scheme -> Dynamic.t
(** The shared replay's cold simulator for a scheme: 1-bit or a zoo
    scheme.  @raise Invalid_argument for any other scheme. *)
