(** Structural fingerprints of branch sites and whole programs.

    The IFPROB database keys its counters by site index, and site indices
    are an artefact of one particular compile: edit the source, recompile,
    and every index after the edit shifts — the classic "profile from a
    previous version of the program" hazard.  This module computes
    identities that survive recompilation:

    - a {b site fingerprint} built from the branch's CFG context (source
      label stem, comparison shape of the condition, loop depth, dominator
      depth, direction) rather than its index, so counters recorded
      against an old build can be re-attached to the matching sites of a
      new build;
    - a {b program fingerprint}, a 64-bit structural hash of the compiled
      IR, stored in the database header so that staleness is detected
      instead of silently mis-feeding counters into the wrong branches;
    - a {b content hash} of the whole build, the key of the stores that
      keep a run's results ({!content_hash}). *)

type site_fp = {
  fp_func : string;  (** enclosing function name *)
  fp_label : string;  (** full source label, e.g. ["main#12:while"] *)
  fp_stem : string;  (** label with the per-function statement counter
                         stripped, e.g. ["while"] — stable under edits
                         elsewhere in the function *)
  fp_cmp : string;  (** comparison shape of the condition definition
                        ("lt", "fge", ...), ["?"] when untraceable *)
  fp_loop_depth : int;  (** natural-loop nesting depth of the branch *)
  fp_dom_depth : int;  (** depth of the branch block in the dominator
                           tree *)
  fp_backward : bool;  (** taken target at or before the branch pc *)
  fp_ordinal : int;  (** index among the function's sites that share the
                         same (stem, cmp, loop depth, direction) class,
                         in site order — disambiguates clones *)
}

val site_fingerprints : Fisher92_ir.Program.t -> site_fp array
(** One fingerprint per branch site of the program. *)

val site_key : site_fp -> string
(** Render a fingerprint as a single line (no newlines) — the form the
    v2 database's sitemap section stores. *)

val site_keys : Fisher92_ir.Program.t -> string array

val match_key : string -> string
(** The matching form of a key: the dominator-depth component is dropped,
    because inserting one early branch shifts the dominator depth of
    everything after it while leaving the sites themselves unchanged.
    Match keys are unique within one program by construction (the ordinal
    numbers the members of a class). *)

val program_hash : Fisher92_ir.Program.t -> string
(** 16-hex-digit structural hash over the function inventory and every
    site's position and fingerprint.  Any recompile that moves, adds or
    removes a branch site changes it.  It deliberately ignores operands
    and immediates, so an edit that changes what a run computes without
    moving a site keeps it: it is the identity that profile databases,
    remapping and ingest match counters by, not a key for stored run
    results. *)

val content_hash : Fisher92_ir.Program.t -> string
(** 16-hex-digit FNV-1a over the whole build: every instruction with its
    operands and immediates, every array declaration (name, class, size,
    initial value), every site entry, the function table and the entry
    point.  Two builds with equal content hashes execute identically on
    every dataset, so the study cache and the trace store key their
    entries on it: editing one constant misses, while a variant build
    that comes out identical to the measured one (a DCE or inlining pass
    that changed nothing) shares its entries. *)
