(** Dynamic (hardware) branch predictors, for the static-vs-dynamic
    ablation.

    The paper contrasts its static scheme with the 1- and 2-bit per-branch
    counters of [Smith 81] / [Lee and Smith 84]; the history schemes
    ([Yeh and Patt 91]'s two-level adaptive, McFarling's gshare, Lee,
    Chen and Mudge's Bi-Mode and a small TAGE) extend that comparison to
    predictors that exploit inter-branch correlation.  These simulators
    attach to a VM run through {!Fisher92_vm.Vm.config}'s [on_branch]
    hook — or replay a recorded {!Fisher92_trace.Trace} through
    {!simulate} — and update their state on every dynamic branch, so
    they see the program in execution order just as a branch-prediction
    cache would.

    {b Cold start}: every counter (per-site, shared, pattern, choice and
    TAGE base) starts at 0, tagged TAGE entries are empty, and the
    global history register is empty, so a cold predictor predicts
    not-taken everywhere until trained.  There is no warm-up pass;
    callers wanting steady-state numbers replay the stream once to train
    and then {!reset_counts} before the measured replay (the [--warm]
    flag of [fisher92 trace sim]).

    {b Profile warming}: passing [?warm] (a per-site direction vector,
    typically [(Remap.plan ir db).r_prediction] so stale databases
    degrade through the remapped/proof/heuristic tiers) seeds the state
    a per-site profile can speak to before the first branch: per-site
    counters start weakly in the profiled direction, shared (Smith) and
    choice (Bi-Mode) entries take a weak majority vote of the sites
    aliasing to them, Bi-Mode's direction banks start weakly biased
    their designed way, pattern tables start weakly toward the global
    majority, and TAGE's tagged tables stay cold (their contents are
    history-dependent, which no per-site profile can know). *)

type scheme =
  | Last_direction  (** 1-bit: predict whatever the branch last did *)
  | Two_bit  (** 2-bit saturating counter per site *)
  | Static of Prediction.t  (** fixed assignment, for head-to-head runs *)
  | Two_level of { history_bits : int }
      (** GAg two-level adaptive: a global history register of
          [history_bits] outcomes indexes one shared table of 2-bit
          counters. *)
  | Gshare of { history_bits : int }
      (** gshare: the history register XOR the site number indexes the
          pattern table, de-aliasing branches that share history. *)
  | Smith of { table_bits : int }
      (** the original [Smith 81] shape: one shared table of
          [2^table_bits] 2-bit counters indexed by the site number —
          sites beyond the table alias onto it; no per-site state at
          all. *)
  | Bimode of { history_bits : int; choice_bits : int }
      (** Bi-Mode [Lee, Chen and Mudge 97]: a per-site choice table
          ([2^choice_bits] 2-bit selectors) picks between two
          gshare-indexed direction banks, separating mostly-taken from
          mostly-not-taken branches so destructive aliasing turns
          neutral. *)
  | Tage of { table_bits : int; tag_bits : int; histories : int list }
      (** TAGE-lite [Seznec and Michaud 06]: a per-site 2-bit bimodal
          base plus one tagged table of [2^table_bits] entries per
          history length in [histories] (1–4 strictly increasing
          lengths); the longest matching tag provides the prediction,
          mispredicts allocate into a longer table, and useful bits
          protect entries that beat their alternate until allocation
          pressure decays them. *)

val scheme_name : scheme -> string
(** The short name the tables print, e.g. ["bimode/12"]; it omits some
    parameters (Bi-Mode's [choice_bits], TAGE's [table_bits] and
    [tag_bits]). *)

val scheme_spec : scheme -> string
(** One line naming the scheme with every parameter (a [Static]
    prediction by its FNV-1a digest), e.g.
    ["bimode history_bits=12 choice_bits=10"]: equal specs simulate
    identically.  Stores of replay results key on it. *)

type t

val create : ?warm:Prediction.t -> scheme -> n_sites:int -> t
(** Counters start predicting not-taken (a cold predictor), unless
    [?warm] seeds them with a per-site profile direction (see above).
    @raise Invalid_argument if a size parameter is out of range
    ([history_bits], [table_bits], [choice_bits] in [1, 24]; [tag_bits]
    in [1, 16]; [histories] 1–4 strictly increasing lengths), or if a
    [Static] or [warm] prediction's length differs from [n_sites] — a
    trace and a prediction from different builds must fail loudly, not
    with a bare [Index_out_of_bounds] mid-replay. *)

val hook : t -> Fisher92_ir.Insn.site -> bool -> unit
(** Feed one dynamic branch: records correct/incorrect, then updates.
    @raise Invalid_argument on a site outside [0, n_sites) — a trace
    recorded against a different build. *)

val simulate :
  ?warm:Prediction.t ->
  scheme ->
  n_sites:int ->
  ((Fisher92_ir.Insn.site -> bool -> unit) -> unit) ->
  t
(** [simulate scheme ~n_sites replay] runs a cold (or profile-warmed,
    with [?warm]) predictor over a branch stream: [replay] is called
    once with the predictor's {!hook}.  Feeding the exact captured
    stream reproduces the inline [on_branch] tallies bit-for-bit. *)

val hook_batch :
  t -> int array -> Bytes.t -> int array -> int array -> int -> unit
(** [hook_batch t sites taken runs periods n] feeds one decoded chunk —
    event [i] ([0 <= i < n]) is site [sites.(i)] with outcome
    [Bytes.get taken i <> '\000'] — equivalently to [n] {!hook} calls:
    both run the scheme's one update rule, and [hook_batch] adds only a
    generic fast-forward driver over it.  [runs] carries the chunk's
    run structure: at each run head [i] (the first index of a stretch
    of consecutive identical (site, outcome) events), [runs.(i)] is the
    stretch's length [>= 1]; other entries are ignored, and the head
    lengths must tile [0, n).  [periods] marks periodic stretches: at
    the head [i] of a stretch satisfying event [j] = event [j - p]
    throughout, [periods.(i)] is [(len lsl 7) lor p] with
    [2 <= p <= 64], every such head also a run head; everywhere else it
    must be 0 (an all-zero array is always valid).  Both are
    preconditions, not checked.  A run is a 1-periodic stretch, so the
    driver treats both alike: it steps whole periods until one leaves
    every table value and the history register unchanged, then tallies
    the rest of the stretch in O(p) — with bit-identical results
    (neither runs nor stretches need be maximal, so splitting them at
    chunk boundaries is always sound).  This is the consumer shape
    produced by {!Fisher92_trace.Trace.Reader.iter_runs}.
    @raise Invalid_argument as {!hook} on an out-of-range site. *)

val simulate_runs :
  ?warm:Prediction.t ->
  scheme ->
  n_sites:int ->
  ((int array -> Bytes.t -> int array -> int array -> int -> unit) -> unit) ->
  t
(** Batched {!simulate}: [simulate_runs scheme ~n_sites feed] calls
    [feed] once with the predictor's {!hook_batch} — typically
    [feed = Trace.Reader.iter_runs reader].  Produces bit-identical
    tallies and state to streaming {!simulate} over the same events
    (the qcheck equivalence property in [test/test_zoo.ml] enforces
    this for all schemes). *)

val reset_counts : t -> unit
(** Zero the correct/incorrect tallies (total and per-site) but keep
    all predictor state — the trained predictor measures its
    steady-state accuracy on the next replay. *)

val correct : t -> int

val incorrect : t -> int

val site_correct : t -> int array
(** Per-site correct-prediction tallies (a copy). *)

val site_incorrect : t -> int array

val percent_correct : t -> float

val rules_digest : unit -> string
(** 16-hex-digit FNV-1a over the per-site tallies of every scheme shape
    (in a small, aliasing size and in the registry zoo's size), cold and
    profile-warmed, over a fixed, seeded 4,096-event stream.  It names
    the update rules themselves: an edit to any rule that changes a
    tally on that stream changes it, so stored replay results keyed on
    it miss without anyone bumping a version.  Computed once per
    process (about 5 ms on a 2-vCPU host); safe to call from any
    domain. *)
