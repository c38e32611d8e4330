(** On-disk cache of executed (program, dataset) measurements.

    A study run is a pure function of the compiled program and the
    dataset bytes, so its {!Fisher92_metrics.Measure.run} record can be
    reused across processes.  Entries are keyed by the build's
    {e content hash} ({!Fisher92_analysis.Fingerprint.content_hash}, over
    every instruction, operand and immediate, array declaration, site
    and function-table entry), an FNV-1a hash of the full dataset
    contents, and the cache format version — so editing a workload
    (even one constant that moves no branch site), changing a dataset,
    or upgrading the format each miss cleanly instead of serving stale
    counters.  Every build is keyed the same way: the measured builds
    {!Study.load} runs and the variant builds (DCE, inlined,
    switch-sorted, mutated) the ablation sections measure through
    {!Study.measure}, so a variant identical to its measured build hits
    the measured build's entry.

    The format follows the profile database's v2 conventions: sized
    strings, per-section FNV-1a checksums, atomic temp-file + rename
    writes.  A corrupt, truncated, or version-mismatched entry is never
    trusted: {!lookup} returns [None] and the pair is recomputed.

    Environment:
    - [FISHER92_CACHE_DIR] overrides the location (default
      [_build/.fisher92-cache/] under the current directory);
    - [FISHER92_NO_CACHE=1] disables both lookup and store. *)

val enabled : unit -> bool
(** False when [FISHER92_NO_CACHE] is set to anything but ["0"] or
    [""]. *)

val cache_dir : unit -> string
(** [FISHER92_CACHE_DIR], or ["_build/.fisher92-cache"]. *)

val dataset_hash : Fisher92_workloads.Workload.dataset -> string
(** 16-hex-digit FNV-1a over the dataset's name, arguments, and every
    seeded array's contents.  It walks every cell, so callers hash a
    dataset once and pass the result to {!lookup} and {!store}. *)

val lookup :
  fingerprint:string ->
  dshash:string ->
  n_sites:int ->
  program:string ->
  Fisher92_workloads.Workload.dataset ->
  Fisher92_metrics.Measure.run option
(** The cached measurement for this exact (program build, dataset) pair,
    or [None] when absent, damaged, or recorded against a different
    build ([fingerprint], a
    {!Fisher92_analysis.Fingerprint.content_hash}), site count, or
    dataset contents ([dshash], the dataset's {!dataset_hash}).  Never
    raises. *)

val store :
  fingerprint:string -> dshash:string -> Fisher92_metrics.Measure.run -> unit
(** Persist one measurement under its key (atomic write).  Best-effort:
    an unwritable cache directory is ignored, never fatal. *)

val clear : unit -> unit
(** Remove every cache entry (used by the benchmark's cold runs). *)
