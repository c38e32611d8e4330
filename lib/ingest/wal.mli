(** The write-ahead log that makes accepted deltas durable before they
    are acknowledged.

    The log head — program identity, fingerprint, compaction
    generation — is written atomically once per {!reset}; records are
    appended one self-checksummed line at a time and flushed (plus
    [fsync], unless the [FISHER92_NO_FSYNC] knob is set) before the
    submitter is acked.  A crash mid-append tears at most the last
    line; {!replay} keeps every intact record — a superset of the
    acknowledged ones — and reports the torn or damaged tail.

    The generation number is the double-apply guard: {!replay}'s result
    must only be folded into a database of the {e same} generation.
    Compaction saves the folded database at generation [g+1] and then
    resets the log to [g+1]; a crash between the two leaves a stale
    gen-[g] log that recovery discards instead of applying twice. *)

type t

val path : dir:string -> string
(** [dir/ingest.wal]. *)

val generation : t -> int

val create :
  dir:string ->
  program:string ->
  n_sites:int ->
  fingerprint:string ->
  generation:int ->
  t
(** Write a fresh head (atomically, crash label [wal.reset]) and open
    the log for appending.  Truncates any previous log. *)

val attach :
  dir:string ->
  program:string ->
  n_sites:int ->
  fingerprint:string ->
  generation:int ->
  t
(** Reopen an existing log for appending {e without} rewriting its
    head — what recovery does after a successful {!replay}, so the
    already-durable records stay on disk until the next compaction
    resets the log. *)

type line
(** One encoded record, newline included. *)

val record_line : Delta.t -> line
(** The record {!append} writes for a delta: its payload in base64 and
    a checksum over both.  Pure, so a submitter builds it before taking
    any lock. *)

val append : t -> line -> unit
(** Append one record, flush, and fsync when enabled — on return the
    delta is durable and may be acknowledged.  Crash labels
    [wal.append.before], [wal.append.torn] (a half-written record is on
    disk) and [wal.append.after].  @raise Invalid_argument on a closed
    log, [Sys_error] on I/O failure. *)

val reset : t -> generation:int -> unit
(** Truncate to a fresh head at [generation] (atomically) and reopen
    for appending — what compaction does after the folded database is
    safely renamed into place. *)

val close : t -> unit
(** Idempotent. *)

type replay = {
  rp_program : string;
  rp_n_sites : int;
  rp_fingerprint : string;
  rp_generation : int;
  rp_deltas : Delta.t list;  (** intact records, in append order *)
  rp_dropped : (int * string) list;
      (** damaged record lines: 1-based line number and reason *)
}

val replay : dir:string -> replay option
(** Read the log back.  [None] when no log exists; damaged records are
    reported, not fatal.  @raise Fisher92_util.Sectfile.Bad only when
    the head itself is unreadable — the log carries no trustworthy
    identity and the caller must quarantine it. *)
