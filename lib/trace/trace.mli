(** Branch traces: the exact dynamic (site, taken) stream of one
    (program, dataset) execution, captured once and replayed into any
    number of predictor simulations.

    The inline [on_branch] ablation pays a full VM re-execution for
    every predictor scheme, and order-sensitive history predictors
    (two-level adaptive, gshare) cannot be studied from the per-site
    aggregate counters at all.  A trace records the stream once;
    replaying it is a linear scan over a few hundred kilobytes, so a
    whole family of simulators costs one execution.

    {2 On-disk format}

    A trace file follows the {!Fisher92_util.Sectfile} conventions the
    profile database and study cache already use — versioned header,
    FNV-1a-checksummed sections, atomic writes — so the shared
    fault-injection corpus applies unchanged.  The two payload sections
    carry binary streams as base64 lines:

    - {b sites}: the site sequence, compressed with a successor model.
      The next branch site is usually a deterministic function of the
      previous (site, taken) pair — the CFG path between branches
      contains no other choice points — so the encoder keeps a
      [next : (site, taken) -> site] table and emits only
      {e (hit-run varint, zigzag site-delta varint)} tokens: a count of
      events whose site the table predicted, then one explicit delta
      for the event that broke the pattern (which also trains the
      table).  Loops are near-free; only cold edges and data-dependent
      successors (e.g. returns from indirect calls) cost bytes.
    - {b taken}: the outcome bit-stream as run-length encoding — one
      initial-direction byte, then varint run lengths of alternating
      direction.

    Real workloads land well under a byte per branch (the test suite
    asserts this).  The decoder is strict: a varint running past the
    payload, a site out of range, a hit-run with no trained successor,
    or leftover bytes all raise, so a damaged trace is recaptured,
    never replayed wrong. *)

type meta = {
  t_program : string;
  t_dataset : string;
  t_fingerprint : string;
      (** {!Fisher92_analysis.Fingerprint.content_hash} of the build the
          trace was captured on *)
  t_dshash : string;  (** FNV-1a hash of the full dataset contents *)
  t_n_sites : int;  (** branch sites of the build *)
  t_events : int;  (** dynamic conditional branches recorded *)
}

(** Capture side: feed from {!Fisher92_vm.Vm.config}[.on_branch]. *)
module Writer : sig
  type t

  val create :
    program:string ->
    dataset:string ->
    fingerprint:string ->
    dshash:string ->
    n_sites:int ->
    t

  val feed : t -> int -> bool -> unit
  (** Record one dynamic branch (site, taken) — the [on_branch] hook.
      @raise Invalid_argument on a site outside [0 .. n_sites-1]. *)

  val events : t -> int

  val render : t -> string
  (** The complete on-disk text.  Pure: feeding more events after a
      render and rendering again is allowed. *)
end

(** Replay side: a streaming decoder over the captured stream. *)
module Reader : sig
  type t

  val of_string : string -> t
  (** Parse and checksum-verify the sections and decode the payloads'
      base64.  @raise Fisher92_util.Sectfile.Bad on any damage. *)

  val meta : t -> meta

  val iter : t -> (int -> bool -> unit) -> unit
  (** Replay the stream in capture order.  Decodes incrementally (the
      payload is never materialized as an event list).
      @raise Fisher92_util.Sectfile.Bad if the payload does not decode
      to exactly [meta.t_events] well-formed events. *)

  val counts : t -> int array * int array
  (** Replayed per-site (encountered, taken) aggregates — bit-exact
      equal to the VM's [site_encountered]/[site_taken] arrays of the
      captured run. *)

  val default_chunk : int
  (** Events per {!iter_runs} chunk when unspecified (8192 — sized so
      the decoded buffers and a handful of consumers' tables co-reside
      in L2). *)

  val iter_runs :
    ?chunk:int ->
    t ->
    (int array -> Bytes.t -> int array -> int array -> int -> unit) ->
    unit
  (** Run-level batched replay: decodes the stream into flat buffers a
      chunk at a time and calls [f sites taken runs periods n] per
      chunk — event [i] of the chunk ([0 <= i < n]) is branch site
      [sites.(i)] with outcome [Bytes.get taken i <> '\000'], and
      [runs.(i)] at each run head [i] (the first index of a maximal
      stretch of consecutive identical (site, outcome) events within
      the chunk) is that stretch's length, [>= 1] and tiling [0, n);
      entries off the run heads are unspecified.  [periods] marks
      chunk-local periodic stretches — regions satisfying event [j] =
      event [j - p], the shape a steady loop iteration leaves — as
      [(len lsl 7) lor p] ([2 <= p <= 64], [len >= 3p]) at the
      stretch's head, which is always also a run head; every other
      entry is 0.  Consumers loop tight over the arrays — and may
      fast-forward whole runs and settled periods, the contract
      [Dynamic.hook_batch] exploits — so a six-scheme simulation pays
      one decode instead of six per-event closure chains.  The buffers
      are reused between chunks; callers must consume, not retain,
      them.  The event sequence and strictness are exactly {!iter}'s
      (the qcheck equivalence property in [test/test_trace.ml] enforces
      both), though when a payload is damaged the two may report a
      different one of the same errors.
      @raise Fisher92_util.Sectfile.Bad as {!iter}
      @raise Invalid_argument when [chunk <= 0]. *)

  val payload_bytes : t -> int
  (** Decoded binary payload size (sites + taken streams), for
      compression reporting. *)
end

(** The on-disk trace store: one file per (build, dataset) key, shared
    with every process.  Keys mirror the study cache: program name, the
    build's content hash ({!Fisher92_analysis.Fingerprint.content_hash},
    so editing one constant misses), dataset-contents hash.  A missing,
    damaged, version-mismatched or stale entry is a miss — the caller
    recaptures, never salvages.

    {b Replay entries.}  Beside a [.trace] file the store keeps
    [.replay] entries: the per-site (correct, incorrect) tallies that
    replaying the trace through a roster of predictor simulators
    produced, so a later run reads a few kilobytes instead of decoding
    and simulating the stream again.  An entry's key is the trace key
    plus a caller-supplied list of lines naming everything else the
    tallies depend on (the study's shared replay puts every simulator's
    full scheme spec, a digest of the profile-warming vector and
    [Dynamic.rules_digest] there); the file name carries the trace key
    and a digest of those lines, and the entry's checksummed meta
    section repeats all of it.  The format follows the trace file's
    conventions — a [fisher92replay] version line, a [meta] section, a
    [tallies] section with one line of [2 * n_sites] canonical decimals
    per simulator, [end] — and is parsed strictly: any damage, or a key
    that differs in any line, is a miss.

    Environment ({!Fisher92_util.Env}): [FISHER92_TRACE_DIR] overrides
    the location, [FISHER92_NO_TRACE] disables the store, replay entries
    included. *)
module Store : sig
  val enabled : unit -> bool

  val dir : unit -> string

  val path : program:string -> fingerprint:string -> dshash:string -> string
  (** Where an entry lives; the whole key is in the file name. *)

  val load :
    program:string ->
    dataset:string ->
    fingerprint:string ->
    dshash:string ->
    n_sites:int ->
    Reader.t option
  (** The stored trace for this exact key, or [None] when absent,
      damaged, or recorded against a different build, dataset, or site
      count.  Never raises. *)

  val save : Writer.t -> string
  (** Persist one trace (atomic write) and return its rendered text, so
      a caller that also replays the capture renders it once.
      Best-effort: an unwritable store directory is ignored, never
      fatal. *)

  val load_replay :
    program:string ->
    dataset:string ->
    fingerprint:string ->
    dshash:string ->
    n_sites:int ->
    key:string list ->
    (int array * int array) list option
  (** The tallies stored under this exact key, in the order they were
      saved — each a per-site (correct, incorrect) pair of [n_sites]
      counts — or [None] when the store is disabled or the entry is
      absent, damaged, or recorded under a key differing in any
      component.  Never raises. *)

  val save_replay :
    program:string ->
    dataset:string ->
    fingerprint:string ->
    dshash:string ->
    n_sites:int ->
    key:string list ->
    (int array * int array) list ->
    unit
  (** Persist tallies under the key (atomic write; each array must hold
      at least [n_sites] counts, and only the first [n_sites] are kept).
      Best-effort: a disabled store or an unwritable directory is
      ignored, never fatal. *)

  val clear : unit -> unit
  (** Remove every stored trace and replay entry. *)
end
