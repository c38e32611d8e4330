(** The sectioned, checksummed text-file codec shared by the profile
    database ({!Fisher92_profile.Db}), the on-disk store's entries
    ({!Store}: study-cache runs, branch traces and replay tallies) and
    the profile-ingest service's deltas, write-ahead log and spool
    ({!Fisher92_ingest}).

    These on-disk formats follow the same conventions, extracted here
    so one implementation serves every reader and writer:

    - {b sized strings}: ["<len> <payload>"], so names may contain
      spaces but never swallow the rest of a line;
    - {b sections}: a header line, body lines, and a terminator line
      ["<endtag> <crc>"] whose [crc] is the 64-bit FNV-1a checksum of
      every preceding section line (header included, each terminated by
      ['\n']), so damage anywhere inside a section invalidates exactly
      that section and nothing else;
    - {b strict readers} report the first problem with its 1-based line
      number ({!Bad}); {b lenient readers} scan for sections
      ({!scan}), resynchronizing on every section start so one damaged
      section cannot swallow the intact sections after it;
    - {b atomic writes}: text lands in a temp file in the destination
      directory and is renamed over the target, so a crash mid-write
      never leaves a half-written file. *)

exception Bad of int * string
(** A parse error at a 1-based line number.  Strict loaders translate
    it into their documented error type; lenient loaders into report
    entries. *)

val failf : int -> ('a, unit, string, 'b) format4 -> 'a
(** [failf line fmt ...] raises {!Bad} with a formatted message. *)

(** {2 Sized strings} *)

val sized : string -> string
(** ["<len> <s>"]. *)

val parse_sized : line:int -> what:string -> string -> string
(** Inverse of {!sized}: the payload must be exactly the declared
    length, with nothing trailing.  @raise Bad (naming [what]). *)

(** {2 Checksums and section writing} *)

val checksum_of : string list -> string
(** 16-hex-digit FNV-1a over the lines, each terminated by ['\n']. *)

val add_line : Buffer.t -> string -> unit
(** One line plus its ['\n']. *)

val add_section :
  Buffer.t -> header:string -> body:string list -> end_tag:string -> unit
(** Header, body, and the checksummed terminator line. *)

(** {2 Lenient section scanning} *)

type raw = {
  rs_idx : int;  (** 0-based index of the section's header line *)
  rs_header : string;
  rs_lines : string list;  (** header plus body, in order *)
  rs_end : string option;  (** terminator line, [None] = never closed *)
  rs_end_idx : int;  (** index just past the section *)
}

val scan :
  section_start:(string -> bool) ->
  end_tag_of:(string -> string) ->
  skip:(string -> bool) ->
  string array ->
  from:int ->
  raw list * int list
(** Split a line stream into sections and leftover (noise) line
    indices.  [section_start] recognizes header lines, [end_tag_of]
    names a header's terminator tag, and [skip] marks lines that are
    neither sections nor noise (blank lines, a format's final marker).
    Resynchronizes on every section-start line. *)

val checksum_ok : raw -> bool
(** The terminator is present, has the ["<tag> <crc>"] shape, and its
    [crc] matches {!checksum_of} of [rs_lines]. *)

(** {2 Strict sequential reading} *)

type cursor
(** A read position over the lines of a file, for formats whose
    sections appear in one fixed order. *)

val cursor : string array -> cursor

val next : cursor -> string
(** Consume one line.  @raise Bad past the last line. *)

val expect : cursor -> string -> unit
(** Consume one line and require it verbatim.  @raise Bad. *)

val strict_section : cursor -> header:string -> end_tag:string -> string list
(** Consume a whole section — header line, body, checksummed
    terminator — and return the body.  @raise Bad on a wrong header, a
    missing terminator, or a checksum mismatch. *)

val at_end : cursor -> bool
(** Everything consumed (at most a trailing empty line remains). *)

val split_lines : string -> string array

(** {2 Files} *)

val read_file : string -> string
(** @raise Sys_error if unreadable. *)

val mkdir_p : string -> unit
(** Create a directory and its parents.  Best-effort: a creation race or
    an unwritable parent is swallowed (the caller's subsequent write
    reports the real problem). *)

val write_atomic :
  ?label:string -> path:string -> tmp_prefix:string -> string -> unit
(** Write via temp-file + rename in [path]'s directory.  @raise
    Sys_error on failure (the temp file is removed).

    Crash points [<label>.before_write], [<label>.mid_write] (half the
    text flushed), [<label>.before_rename] and [<label>.after_rename]
    fire through {!crash_point}; [label] defaults to [tmp_prefix]. *)

(** {2 Crash-point injection}

    Crash-consistency tests need to kill a writer at a chosen instant.
    Write paths call {!crash_point} with a stable label; nothing
    happens unless that label is {e armed} — via the
    [FISHER92_CRASH_AT] environment knob ([label] or [label:N] to fire
    on the [N]th hit), or by setting {!crash_spec} directly from an
    in-process harness.  When an armed point fires, {!crash_hook} runs:
    by default it prints and exits with code 42 (what a [kill -9] at
    that instant looks like to the rest of the system); harnesses
    replace it with a function raising {!Crash} to simulate the crash
    without losing the process. *)

exception Crash of string
(** Raised by test harness hooks; never by the default hook. *)

val crash_spec : string option ref
(** The armed point, initialized from [FISHER92_CRASH_AT]. *)

val crash_hook : (string -> unit) ref
(** What firing means.  Default: print and [exit 42]. *)

val crash_point : string -> unit
(** Fire the hook if [label] (or [label:N] on the [N]th call) is armed. *)

val crash_reset : unit -> unit
(** Forget hit counts — a fault-injection harness calls this between
    cases so each case's [label:N] counts from zero again. *)
