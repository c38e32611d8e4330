(** The experiment driver: compile every workload with the paper's
    measured configuration (classical optimizations on, global DCE off,
    no inlining), run every dataset once, and keep the per-run
    measurements for the analysis passes.

    One [load] executes every (program, dataset) pair exactly once; all
    figures and tables are then derived from the stored profiles and
    counts, mirroring how the paper derived everything from one
    IFPROBBER + MFPixie collection per run.

    The pairs are independent, so [load] drives them through a
    {!Fisher92_util.Pool} of domains and {!measure}s each one, which
    consults the on-disk {!Study_cache} before simulating; results are
    merged by task index, which makes the parallel, cached study
    byte-identical to a sequential, cold one.  [FISHER92_DOMAINS],
    [FISHER92_CACHE_DIR] and [FISHER92_NO_CACHE] tune this from the
    environment. *)

type loaded = {
  workload : Fisher92_workloads.Workload.t;
  ir : Fisher92_ir.Program.t;  (** measured build (no DCE, no inlining) *)
  runs : Fisher92_metrics.Measure.run list;  (** one per dataset, in order *)
  dshashes : string list;
      (** each dataset's {!Study_cache.dataset_hash}, in order, when
          [load] ran through the study cache (it hashed them for its
          keys); empty otherwise.  Later stores keyed on the same
          datasets reuse them instead of re-hashing, and the ablation
          sections cache their variant builds only when these are
          present. *)
}

type t

type progress_event =
  | Compiled of { workload : string; seconds : float }
  | Executed of {
      workload : string;
      dataset : string;
      seconds : float;
      cached : bool;  (** served from {!Study_cache}, not simulated *)
    }

type run_timing = { rt_dataset : string; rt_seconds : float; rt_cached : bool }

type timing = {
  tm_workload : string;
  tm_compile : float;  (** seconds spent compiling this workload *)
  tm_runs : run_timing list;  (** one per dataset, in order *)
}

val load :
  ?workloads:Fisher92_workloads.Workload.t list ->
  ?domains:int ->
  ?cache:bool ->
  ?progress:(progress_event -> unit) ->
  unit ->
  t
(** Compile and execute; default is the full registry.  Deterministic:
    the result does not depend on [domains] (default
    {!Fisher92_util.Pool.default_domains}) or on cache state.
    [~cache:false] skips the on-disk cache even when the environment
    allows it.  [progress] callbacks may fire from worker domains but
    are serialized by a mutex. *)

val load_timed :
  ?workloads:Fisher92_workloads.Workload.t list ->
  ?domains:int ->
  ?cache:bool ->
  ?progress:(progress_event -> unit) ->
  unit ->
  t * timing list
(** [load] plus per-workload wall-clock timings (one entry per workload,
    in input order) for `--timing` style reporting. *)

val render_timings : timing list -> string
(** The `--timing` table: per-workload compile/simulate seconds, per-run
    cache hits, and a totals row. *)

val items : t -> loaded list

val find : t -> string -> loaded
(** By workload name.  @raise Not_found. *)

val execute :
  Fisher92_ir.Program.t ->
  Fisher92_workloads.Workload.dataset ->
  ?config:Fisher92_vm.Vm.config ->
  unit ->
  Fisher92_vm.Vm.result
(** Run one dataset against a compiled image, uncached (for the
    experiments that need VM hooks or a result no
    {!Fisher92_metrics.Measure.run} holds). *)

val measure :
  ?cache:bool ->
  ?fingerprint:string ->
  ?dshash:string ->
  program:string ->
  Fisher92_ir.Program.t ->
  Fisher92_workloads.Workload.dataset ->
  Fisher92_metrics.Measure.run * bool
(** One (build, dataset) measurement: the {!Study_cache} entry for this
    key when present and intact, else a VM run stored back
    (best-effort).  The flag is [true] when the cache served it.  [load]
    runs every pair through here, and the ablation sections run their
    variant builds (DCE, inlined, switch-sorted, mutated) the same way.
    [fingerprint] (the build's
    {!Fisher92_analysis.Fingerprint.content_hash}) and [dshash] (the
    dataset's {!Study_cache.dataset_hash}) are computed when omitted;
    a caller measuring several datasets of one build, or one dataset
    against several builds, hashes once and passes them.
    [~cache:false] or [FISHER92_NO_CACHE] skips the cache and the
    hashing. *)

val first_dshash : loaded -> string option
(** The first dataset's hash from [dshashes], if [load] computed it. *)

val compile_variant :
  ?dce:bool -> ?inline:bool -> Fisher92_workloads.Workload.t ->
  Fisher92_ir.Program.t
(** Compile a workload with non-default pass settings (Table 1 uses
    [~dce:true], the inlining ablation [~inline:true]). *)
