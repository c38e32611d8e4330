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

    A trace file is the [.trace] kind of {!Fisher92_util.Store}: a
    versioned header, a meta section opening with the store key,
    FNV-1a-checksummed sections and atomic writes, as for the study
    cache's entries, so the shared fault-injection corpus applies
    unchanged.  The two payload sections carry binary streams as base64
    lines:

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

val kind : Fisher92_util.Store.kind
(** [.trace] entries, one per (build, dataset) key, under
    [FISHER92_TRACE_DIR]; [FISHER92_NO_TRACE] disables them
    ({!Fisher92_util.Env}).  A missing, damaged, version-mismatched or
    stale entry is a miss: the caller recaptures, never salvages. *)

type meta = {
  key : Fisher92_util.Store.key;
      (** the (build, dataset) the trace was captured on; [extra] is
          [[]] *)
  events : int;  (** dynamic conditional branches recorded *)
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

  val key : t -> Fisher92_util.Store.key
  (** The store key the writer was created with. *)

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

  val read : t Fisher92_util.Store.reader
  (** The decoder behind {!of_string}, for
      {!Fisher92_util.Store.find}. *)

  val meta : t -> meta

  val iter : t -> (int -> bool -> unit) -> unit
  (** Replay the stream in capture order.  Decodes incrementally (the
      payload is never materialized as an event list).
      @raise Fisher92_util.Sectfile.Bad if the payload does not decode
      to exactly [meta.events] well-formed events. *)

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
