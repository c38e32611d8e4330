(** On-disk cache of executed (program, dataset) measurements: the
    [.run] kind of {!Fisher92_util.Store}.

    A study run is a pure function of the compiled program and the
    dataset bytes, so its {!Fisher92_metrics.Measure.run} record can be
    reused across processes.  Entries are keyed by the build's
    {e content hash} ({!Fisher92_analysis.Fingerprint.content_hash}, over
    every instruction, operand and immediate, array declaration, site
    and function-table entry), an FNV-1a hash of the full dataset
    contents, the site count, and the cache format version — so editing
    a workload (even one constant that moves no branch site), changing
    a dataset, or upgrading the format each miss cleanly instead of
    serving stale counters.  Every build is keyed the same way: the
    measured builds {!Study.load} runs and the variant builds (DCE,
    inlined, switch-sorted, mutated) the ablation sections measure
    through {!Study.measure}, so a variant identical to its measured
    build hits the measured build's entry.

    A corrupt, truncated, version-mismatched or differently keyed entry
    is never trusted: {!Fisher92_util.Store.find} returns [None] and the
    pair is recomputed.

    Environment:
    - [FISHER92_CACHE_DIR] overrides the location (default
      [_build/.fisher92-cache/] under the current directory);
    - [FISHER92_NO_CACHE=1] disables both lookup and store. *)

val kind : Fisher92_util.Store.kind
(** [.run] entries under [FISHER92_CACHE_DIR], off under
    [FISHER92_NO_CACHE]. *)

val dataset_hash : Fisher92_workloads.Workload.dataset -> string
(** 16-hex-digit FNV-1a over the dataset's name, arguments, and every
    seeded array's contents.  It walks every cell, so callers hash a
    dataset once and keep the result for every store key. *)

val render : Fisher92_util.Store.key -> Fisher92_metrics.Measure.run -> string
(** One measurement's entry text under its key: its break counts and
    its nonzero per-site profile counters. *)

val read : Fisher92_metrics.Measure.run Fisher92_util.Store.reader
(** The strict inverse of {!render}, for {!Fisher92_util.Store.find}. *)
