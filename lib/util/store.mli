(** The on-disk store behind every memo of previous runs: the study
    cache's [.run] entries, the branch traces' [.trace] files and the
    shared replay's [.replay] tallies.

    An entry is one {!Sectfile} file whose name carries its whole key,
    [<program>.<fingerprint>.<dshash>[.<extra digest>]<suffix>], so
    distinct builds, datasets and kinds never collide and every kind
    may share one directory.  Its text is a version line, a checksummed
    [meta] section that opens with the key's lines — [program] and
    [dataset] as sized strings, [fingerprint], [dshash], [sites], then
    one [key] line per [extra] line —, the kind's own sections, and
    [end].  A kind names only its directory and enable knobs, its
    file-name suffix, its temp-file prefix and its version line; it
    brings its own codec for the rest.

    Reading is strict and never salvages: a disabled kind, a missing
    or unreadable file, damage anywhere (a lost final newline
    included), a version line of another format or a key differing in
    any line is a miss ([None]) and the caller recomputes.  Writing is best-effort and atomic: an
    unwritable directory is ignored, never fatal.  The knobs are read
    on every call, so a process may move or disable a store between
    calls. *)

type kind = {
  suffix : string;  (** file-name suffix, dot included: [".run"] *)
  tmp_prefix : string;  (** temp-file prefix and crash-point label *)
  version : string;  (** first line of every entry *)
  dir : unit -> string;  (** the directory knob, read on every call *)
  enabled : unit -> bool;  (** the enable knob, read on every call *)
}

type key = {
  program : string;
  dataset : string;
  fingerprint : string;
      (** {!Fisher92_analysis.Fingerprint.content_hash} of the build *)
  dshash : string;  (** FNV-1a hash of the full dataset contents *)
  n_sites : int;  (** branch sites of the build *)
  extra : string list;
      (** kind-specific key lines (the shared replay's roster and
          rules), [[]] for most kinds *)
}

type 'a reader = key -> string list -> (string -> string list) -> 'a
(** A kind's decoder: given the entry's key, the meta lines after the
    key's and [section], which consumes the next section of that name
    and returns its body, build the value.  Sections are read in file
    order.  @raise Sectfile.Bad on anything it rejects. *)

val path : kind -> key -> string
(** Where the entry lives; [extra], when not empty, adds its
    {!Fnv.hash_strings} digest to the name. *)

val render :
  kind -> key -> meta:string list -> (string * string list) list -> string
(** An entry's text: the version line, the meta section (the key's
    lines, then [meta]), one checksummed section per [(name, body)]
    closed by [end<name>], and [end]. *)

val parse : kind -> string -> 'a reader -> 'a
(** The strict inverse of {!render}, for an entry's text from anywhere;
    the reader gets the key the text records.  @raise Sectfile.Bad on
    any damage. *)

val find : kind -> key -> 'a reader -> 'a option
(** The entry stored under exactly this key, decoded; [None] when the
    kind is disabled or the entry is absent, damaged or recorded under
    another key.  Reads the file once.  Never raises [Sys_error],
    [End_of_file] or [Sectfile.Bad]. *)

val put : kind -> key -> string -> unit
(** Write an entry's text under its key (atomic).  Does nothing when
    the kind is disabled; swallows [Sys_error]. *)

val clear : kind -> unit
(** Remove every entry of this kind from its directory, leaving other
    kinds' files. *)

val int_field : string -> string -> int
(** [int_field name line]: the non-negative int of a ["<name> <n>"]
    line.  @raise Sectfile.Bad otherwise. *)
