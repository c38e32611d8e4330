(** The IFPROBBER database: accumulated branch counters across runs.

    The paper's flow was: every instrumented run adds its counters to a
    per-program database; a utility later reads the database and feeds the
    totals back into the source as directives.  This module is that
    database, keyed by dataset name so that experiment code can also pull
    out per-dataset profiles (the paper kept those separate when studying
    cross-dataset prediction).

    {2 On-disk format}

    {!save} writes one versioned, sectioned format, [ifprobdb2].  A
    [meta] section carries the program name, site count and the
    program's structural fingerprint (see
    {!Fisher92_analysis.Fingerprint}); an optional [sitemap] section
    stores one structural key per site so stale counters can be remapped
    onto a recompiled program; each dataset is its own section.  Every
    section ends with a 64-bit FNV-1a checksum of its bytes, so damage
    is localized: {!load_lenient} recovers every section whose checksum
    still verifies.  {!load} accepts exactly the files {!load_lenient}
    reports {!clean}. *)

type t

val create : program:string -> n_sites:int -> t
(** @raise Invalid_argument on a negative site count or a program name
    containing a newline. *)

val program : t -> string

val n_sites : t -> int
(** Number of branch sites every recorded profile must have. *)

val record : t -> dataset:string -> Profile.t -> unit
(** Add one run's counters under [dataset] (accumulating if the dataset
    was already recorded, as repeated runs did in the paper).
    @raise Invalid_argument on a profile for a different program, a site
    count mismatch, or a dataset name containing a newline. *)

val datasets : t -> string list
(** Recorded dataset names, in first-recorded order. *)

val profile : t -> dataset:string -> Profile.t
(** @raise Not_found. *)

val accumulated : t -> Profile.t
(** Sum over every recorded dataset — what the feedback utility would
    write back into the source. *)

val accumulated_except : t -> dataset:string -> Profile.t option
(** Sum over all datasets except one (the paper's "sum of the other
    datasets" predictor); [None] if that leaves nothing. *)

(** {2 Program identity} *)

val fingerprint : t -> string option
(** The structural fingerprint of the build the counters were recorded
    against, when known ([None] for freshly created dbs). *)

val sitekeys : t -> string array option
(** Per-site structural keys ({!Fisher92_analysis.Fingerprint.site_key})
    of the recorded build, when known. *)

val set_identity : t -> fingerprint:string -> sitekeys:string array -> unit
(** Attach the recorded build's identity (stored in the [meta] and
    [sitemap] sections).  @raise Invalid_argument if the key array does
    not have exactly [n_sites] entries or a key contains a newline. *)

val generation : t -> int
(** The ingest-compaction generation stored in the [meta] section —
    the watermark that decides whether a write-ahead log found next to
    the database still applies to it (see {!Fisher92_ingest.Wal}).  0
    for fresh databases and databases never compacted. *)

val set_generation : t -> int -> unit
(** @raise Invalid_argument on a negative generation.  A generation of 0
    is not serialized, so files written before ingest stay byte-stable. *)

(** {2 Serialization} *)

val save : t -> string
(** Serialize in the sectioned, checksummed format. *)

(** {2 Loading} *)

type issue = {
  i_line : int;  (** 1-based line where the problem was detected *)
  i_section : string;  (** ["meta"], ["sitemap"], ["dataset NAME"], ... *)
  i_reason : string;
}

type report = {
  r_version : int;  (** 2, or 0 when the first line is not [ifprobdb2] *)
  r_program : string option;
  r_meta_ok : bool;  (** meta section present and checksum-clean *)
  r_sitemap_present : bool;
  r_sitemap_ok : bool;  (** false when present but damaged *)
  r_recovered : string list;  (** datasets kept, in file order *)
  r_dropped : issue list;
      (** everything rejected or out of place, and why, in line order *)
}

val load_lenient : string -> t * report
(** Best-effort load: never raises.  Returns every dataset whose section
    is intact (its checksum verifies and every line parses) and a report
    of every departure from what {!save} writes.  Recovered profiles
    always satisfy [0 <= taken <= encountered] per site; duplicate
    dataset sections keep the first intact occurrence.  Sections out of
    the written order ([meta] first, then [sitemap] if any) and a
    missing final [end] are reported but drop nothing.  When the meta
    section is too damaged to yield a site count, nothing can be
    validated and everything is dropped.  A file whose first line is not
    [ifprobdb2] yields an empty database and one [header] issue saying
    the format is unsupported. *)

val clean : report -> bool
(** Nothing reported: the file is exactly what {!load} accepts. *)

val load : string -> t
(** Strict load: {!load_lenient}'s database when its report is {!clean}.
    @raise Failure otherwise, naming the report's first issue
    (["Db.load: line 42: malformed counter line ..."]). *)

val render_report : report -> string
(** Human-readable multi-line summary (the [db check] CLI output). *)

(** {2 Files} *)

val save_file : t -> string -> unit
(** Write {!save}'s text to a path {b atomically}: the text is written to
    a temporary file in the same directory and renamed over the target,
    so a crash mid-write can never leave a half-written database. *)

val load_file : string -> t
(** @raise Sys_error if unreadable, [Failure] if malformed. *)
