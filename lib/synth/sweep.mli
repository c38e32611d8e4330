(** The sharded generator sweep: fan a parameter grid over the Domain
    pool, run every generated workload through the study machinery and
    the static/profile/heuristic predictor roster, characterize each
    one, and merge per-class results deterministically.

    The shape follows the sharded permutation-sweep pattern named in the
    roadmap: the grid is fixed up front, each point is one independent
    task fanned over {!Fisher92_util.Pool} (generate, study-load on the
    task's own domain, characterize and predict), and results are
    merged by task index — so the output is byte-identical for any
    worker count and any cache state, and repeated runs with the same
    seed grid reproduce byte-for-byte.  Compiled runs persist through
    the study cache, making warm reruns cheap; characterization runs its
    gshare inline on the VM, so a sweep captures and stores no branch
    traces.

    Registered in the experiment registry as [synthpool] (the per-class
    table plus the failure tail); this module's initialization performs
    the registration, so drivers reference {!registry} instead of
    [Fisher92.Experiments.registry] to see both rosters. *)

(** One grid point: a named, seeded parameter assignment. *)
type point = { pt_name : string; pt_params : Gen.params; pt_seed : int }

val default_seed : int
(** 42 — the seed the [synthpool] experiment and CI smoke use. *)

val grid : ?variants:int -> seed:int -> unit -> point list
(** The default parameter grid: 4 templates x 3 bias levels x 2 drift
    levels x [variants] structural variants (default 5 — 120 points;
    every point name is distinct).  All point seeds derive from [seed];
    equal seeds yield the identical grid. *)

val workloads : point list -> Fisher92_workloads.Workload.t list
(** Generate every point's workload, in grid order. *)

(** One fully measured grid point. *)
type item = {
  it_point : point;
  it_charz : Charz.t;
  it_self_mr : float;
      (** miss rate of each run's own majority prediction, percent *)
  it_cross_mr : float;
      (** leave-one-out cross-dataset profile miss rate: each dataset
          predicted from the union of the {e other} datasets' profiles *)
  it_heur_mr : float;  (** Ball-Larus static heuristic miss rate *)
  it_proved : int;  (** sites the proof pass pins (proved + loop-bounded) *)
}

val run :
  ?domains:int -> ?cache:bool -> ?items:point list -> unit -> item list
(** Execute the sweep: one pool task per point generates it,
    study-loads it (compile + run every dataset, [~domains:1]),
    characterizes it and races the predictor roster; results come back
    in grid order.  [items] defaults to [grid ~seed:default_seed ()];
    [domains] sizes the one fan-out and [cache] threads through to each
    point's study load.  Deterministic: the result is independent of
    [domains] and cache state. *)

(** Per-class aggregate over the sweep. *)
type class_row = {
  cr_class : Charz.cls;
  cr_count : int;
  cr_entropy : float;  (** mean branch entropy *)
  cr_h2p : float;  (** mean H2P dynamic share *)
  cr_self : float;  (** geomean self miss rate, percent *)
  cr_cross : float;  (** geomean cross-dataset miss rate, percent *)
  cr_heur : float;  (** geomean heuristic miss rate, percent *)
}

val class_rows : item list -> class_row list
(** One row per non-empty class, in {!Charz.all_classes} order. *)

val failure_tail : ?n:int -> item list -> item list
(** The [n] (default 8) workloads where cross-dataset profile prediction
    does worst relative to the run's own floor — ordered by
    cross-to-self miss ratio, then cross miss rate, then name, so the
    tail is deterministic. *)

val render : item list -> string
(** The [synthpool] text block: pool summary, per-class table, failure
    tail. *)

val columns : item Fisher92_report.Table.column list
(** The [synthpool] TSV: one line per grid point, with its parameters,
    its characterization and its predictor roster's miss rates.
    [fisher92 synth sweep --format=tsv] prints the same columns. *)

val registry : unit -> Fisher92.Experiment.t list
(** The full experiment registry with the synth registrations forced:
    the core experiments (whose module initialization registers them
    first) followed by [synthpool].  Also registers the curated
    workloads as registry extras.  Drivers call this instead of
    [Fisher92.Experiments.registry]. *)
