(** The crash-safe concurrent profile-ingest service.

    Clients submit {!Delta}s; the service merges them into sharded
    in-memory counters ({!Merge}) with a write-ahead log ({!Wal})
    making every accepted delta durable {e before} it is acknowledged,
    and periodic {!compact}ion folding log + counters into the v2
    profile database by atomic rename.

    The crash contract, enforced by the fault-injection suite: killing
    the process at {e any} instant loses at most deltas that were never
    acknowledged; {!open_} (recovery) never raises on the debris, never
    applies an acknowledged delta twice (generation watermark), and
    always yields a loadable database at the next compaction.

    Degradation on the way in mirrors the prediction planner's chain:
    a delta from a stale build is structurally remapped
    ({!Fisher92_predict.Remap.correspondence}), dropping only sites
    without a unique counterpart; malformed or unclassifiable deltas
    are quarantined with a reason and never reach the log. *)

type config = {
  c_dir : string;  (** service directory: database, WAL, spool live here *)
  c_program : string;
  c_n_sites : int;
  c_fingerprint : string;  (** the pool build's program hash *)
  c_sitekeys : string array;  (** one per site of the pool build *)
  c_shards : int option;  (** [None] = the [FISHER92_SHARDS] knob *)
}

type t

val db_path : dir:string -> string
(** [dir/ifprob.db] — where compaction puts the database. *)

val spool_dir : dir:string -> string
val quarantine_dir : dir:string -> string

val open_ : config -> t
(** Open the service, running recovery: load (or salvage) the
    database, quarantine it and start afresh if it is not an
    [ifprobdb2] file, rebase it if it was recorded against a stale
    build, replay the WAL if its generation matches, discard it if
    stale, quarantine it if unreadable.  Never raises on damaged state —
    {!notes} reports everything that was dropped or repaired.
    @raise Invalid_argument on a malformed config. *)

type outcome =
  | Acked  (** durable in the WAL and merged *)
  | Duplicate  (** this id was already accepted (idempotent retry) *)
  | Acked_remapped of int
      (** durable; stale client, [n] counter entries had no unique
          structural counterpart and were dropped *)
  | Quarantined of string  (** rejected before the WAL, with a reason *)

val outcome_name : outcome -> string

val submit : t -> Delta.t -> outcome
(** Thread-safe.  On [Acked]/[Acked_remapped]/[Duplicate] return, the
    delta is durable: any later crash preserves it. *)

val compact : t -> unit
(** Quiesce submitters, fold base database + pending counters into a
    fresh database (saturating adds) at generation [g+1], save it
    atomically, then reset the WAL to [g+1].  Thread-safe; concurrent
    submitters block only for the duration of the fold. *)

val close : ?fold:bool -> t -> unit
(** Close the WAL, after a final {!compact} when [fold] (default) and
    counters are pending. *)

type drain = { dr_acked : int; dr_duplicates : int; dr_quarantined : int }

val drain_spool : t -> drain
(** Ingest every [*.delta] file in the spool directory (sorted order):
    parsed and accepted files are deleted, malformed or rejected ones
    move to the quarantine directory next to a [.reason] file. *)

(** {2 Introspection} *)

type stats = {
  mutable st_accepted : int;
  mutable st_duplicates : int;
  mutable st_remapped : int;
  mutable st_dropped_entries : int;
  mutable st_quarantined : int;
      (** rejected deltas (submitted or spooled), plus each database
          or WAL head that {!open_} moved to the quarantine directory *)
  mutable st_compactions : int;
  mutable st_replayed : int;  (** WAL records re-applied by recovery *)
}

val stats : t -> stats

val notes : t -> string list
(** Everything recovery and quarantining had to report, oldest first. *)

val base_db : t -> Fisher92_profile.Db.t
(** The last compacted state (pending counters not included). *)

val pending : t -> int
(** Encountered-counter mass merged but not yet compacted. *)

val config : t -> config
