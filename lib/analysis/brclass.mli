(** Static branch classification: SCCP constants, value ranges, and
    counted-loop trip bounds combined into one verdict per branch site.

    Every classification other than [Unknown] is a {e theorem} about the
    program: it must hold on every run over every dataset, and the trace
    corpus is replayed against it in the test suite ({!Check}).  The
    analyses only assume what the VM guarantees — zero-initialised
    registers, unknown entry arguments, unknown memory — so a proof
    never depends on a particular input. *)

(** Trip-count bounds for a counted loop's header branch. *)
type trip = {
  tr_stay : bool;
      (** the branch direction that stays in the loop (almost always
          taken for lowered code) *)
  tr_min : int;  (** every completed activation stays at least this often *)
  tr_max : int;
      (** no activation stays more often; [max_int] means unbounded *)
}

type cls =
  | Proved_taken
  | Proved_not_taken
  | Loop_bounded of trip
  | Unknown

(** Which analysis produced the verdict (drives the lint split:
    [Src_const] findings are [Constant_branch], [Src_range] findings
    [Contradictory_guard]). *)
type source = Src_const | Src_range | Src_loop | Src_none

type site_class = {
  sc_cls : cls;
  sc_source : source;
  sc_detail : string;  (** one-line human-readable justification *)
}

type t = {
  classes : site_class array;  (** indexed by program branch site *)
}

val classify : Fisher92_ir.Program.t -> t

val cls_name : cls -> string
(** ["proved-taken"], ["loop-bounded"], ... *)

val predicted_direction : cls -> bool option
(** The direction a [Proved_*] verdict pins down, or the stay direction
    of a [Loop_bounded] branch whose minimum trip count makes staying
    the majority ([tr_min >= 2]: at least two stays per exit); [None]
    otherwise. *)

val counts : t -> int * int * int * int
(** (proved_taken, proved_not_taken, loop_bounded, unknown). *)

(** Replay observed branch outcomes against a classification and record
    every contradiction.  Feed events in trace order; [Loop_bounded]
    sites are checked as runs of consecutive stay outcomes, whose length
    must lie within [tr_min, tr_max] (a run is only held to the minimum
    when an observed exit terminates it — a trace that ends mid-loop
    after a trap cannot complete its activation). *)
module Check : sig
  type violation = {
    v_site : int;
    v_message : string;  (** what was claimed and what was observed *)
  }

  type state

  val start : t -> state

  val feed : state -> int -> bool -> unit
  (** [feed st site taken] replays one observed branch outcome. *)

  val violations : state -> violation list
  (** In first-observed order, capped at 16 per program. *)
end
