(** Graceful degradation from a possibly-stale profile database.

    The paper sidesteps the "profile from a previous version of the
    program" hazard by always recompiling before profiling.  A production
    feedback loop cannot: the database on disk was recorded against
    whatever build ran last week.  This module turns a database plus the
    {e current} build into one prediction, choosing per site the best
    evidence available:

    + {b Exact} — the database's fingerprint matches the build: its
      counters apply verbatim (sites the profile never saw fall through);
    + {b Remapped} — the fingerprint mismatches, but the site's
      structural key ({!Fisher92_analysis.Fingerprint}) identifies a
      unique counterpart among the recorded sites whose counters carry
      real evidence: the old majority direction is re-used;
    + {b Proof} — no usable counters, but the static branch-proof pass
      ({!Fisher92_analysis.Brclass}) pins the site down: a proved
      direction, or the stay direction of a counted loop whose minimum
      trip count makes staying the majority.  Unlike a heuristic this
      never loses to any profile;
    + {b Heuristic} — the structural Ball-Larus family's opinion, when
      it has one;
    + {b Default} — static not-taken, the last resort.

    A database saved without identity (no fingerprint, as
    {!Fisher92_profile.Db.create} leaves it until
    {!Fisher92_profile.Db.set_identity}) but with the right site count is
    trusted as Exact.  With the wrong site count, or when fingerprints
    mismatch and no site keys were stored, nothing can be salvaged and
    the whole chain degrades to heuristic/default. *)

type provenance = Exact | Remapped | Proof | Heuristic | Default

val provenance_name : provenance -> string

type t = {
  r_prediction : Prediction.t;
  r_provenance : provenance array;  (** per site of the current build *)
  r_stale : bool;  (** the database did not match the build *)
  r_verified : bool;  (** the database carried a fingerprint at all *)
}

val counts : t -> int * int * int * int * int
(** (exact, remapped, proof, heuristic, default) site counts. *)

val plan : Fisher92_ir.Program.t -> Fisher92_profile.Db.t -> t
(** Build the degradation-chain prediction of a program from a database
    recorded against the same or an earlier build of it. *)

val correspondence :
  from_keys:string array -> to_keys:string array -> int option array
(** The structural-matching core the Remapped tier (and the ingest
    service's stale-client degradation) is built on: for every site of
    [from_keys], the index of its counterpart in [to_keys] under
    {!Fisher92_analysis.Fingerprint.match_key} equality — [None] unless
    the key is unique on {e both} sides (an ambiguous match must never
    feed counters into the wrong branch). *)
