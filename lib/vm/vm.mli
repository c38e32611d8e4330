(** Interpreter for IR programs with exact dynamic accounting.

    The VM plays the role of both Multiflow tools from the paper in a single
    run: like MFPixie it counts every executed RISC-level instruction (by
    kind), and like the IFPROBBER it keeps an (encountered, taken) counter
    pair for every static conditional-branch site.  Unlike the paper's
    instrumented binaries, the counters live outside the simulated machine,
    so profiling perturbs neither instruction counts nor branch behaviour.

    Control-transfer accounting needed by the metrics layer is also
    recorded: returns are split by whether the frame was entered through a
    direct or an indirect call (the paper counts an indirect call *and its
    return* as unavoidable breaks).

    Two interchangeable engines execute the IR.  The {e reference
    interpreter} is a per-instruction dispatch loop; the
    {e closure-threaded engine} ({!Exec}) pre-compiles each function's
    basic blocks into continuation-chained OCaml closures once per run,
    eliminating the dispatch match, the per-op fuel decrement, the
    register bounds checks, all hook tests and all per-call allocation
    from the hot path.  Both produce bit-identical results (the
    differential suite enforces this); the threaded engine is the
    default, and {!config}[.engine] or the [FISHER92_ENGINE] environment
    knob selects one explicitly.

    A program that fails {!Exec.in_range} (a register operand outside
    its function's register files, a parameter count larger than them,
    an undeclared array, a branch site at or above [Program.n_sites], or
    a direct call to a missing callee or with more arguments than the
    callee takes) runs on the interpreter even when [Threaded] is
    selected, so it raises exactly what the interpreter raises. *)

exception Trap of string
(** Runtime error in the simulated program: array index out of bounds,
    division by zero, bad indirect-call index, value output overflow, or
    fuel exhaustion.  The message includes function and pc context. *)

type output = Out_int of int | Out_float of float

type result = {
  kind_counts : int array;
      (** dynamic instruction count per {!Fisher92_ir.Insn.kind}, indexed in
          the order of [Insn.all_kinds] *)
  total : int;  (** total dynamic instructions executed *)
  site_encountered : int array;  (** per branch site, times executed *)
  site_taken : int array;  (** per branch site, times the branch was taken *)
  rets_from_direct : int;  (** dynamic returns matching a direct call *)
  rets_from_indirect : int;  (** dynamic returns matching an indirect call *)
  outputs : output list;  (** the program's output stream, in order *)
  return_value : int option;  (** entry function's integer return, if any *)
  dumped : (string * [ `Ints of int array | `Floats of float array ]) list;
      (** final contents of the arrays named in {!config}[.dump_arrays] *)
  gap_histogram : int array;
      (** populated when {!config}[.predicted] was supplied: bucket [b]
          counts gaps [g] (dynamic instructions between consecutive breaks
          in control) with [2^b <= g < 2^(b+1)] *)
  gap_count : int;  (** number of recorded gaps *)
  gap_sum : int;  (** total instructions across recorded gaps *)
}

val kind_count : result -> Fisher92_ir.Insn.kind -> int
(** Count of one instruction kind. *)

val conditional_branches : result -> int
(** Dynamic conditional-branch executions (= sum of [site_encountered]). *)

val mispredicts : result -> taken:bool array -> int
(** Number of dynamic conditional branches that a static per-site
    prediction gets wrong: for a site predicted taken, its not-taken
    executions are mispredicts, and vice versa.  [taken.(s)] is the
    predicted direction of site [s]. *)

type engine = Machine.engine = Interp | Threaded
    (** [Interp] is the reference per-instruction interpreter; [Threaded]
        is the closure-threaded engine ({!Exec}). *)

val engine_name : engine -> string
(** ["interp"] or ["threaded"], for logs and bench artifacts. *)

val engine_of_string : string -> engine option
(** Parses ["interp"]/["interpreter"] and ["threaded"]/["closure"],
    case-insensitively; [None] otherwise. *)

val default_engine : unit -> engine
(** The engine used when {!config}[.engine] is [None]: [Threaded],
    unless the [FISHER92_ENGINE] environment knob overrides it. *)

type config = Machine.config = {
  fuel : int option;
      (** abort with [Trap] after this many dynamic instructions *)
  max_outputs : int;  (** abort if the program emits more than this *)
  on_branch : (Fisher92_ir.Insn.site -> bool -> unit) option;
      (** called on every dynamic conditional branch with (site, taken);
          used by the dynamic-predictor ablation *)
  predicted : bool array option;
      (** per-site static prediction; when supplied, the VM records the
          distribution of instruction-run lengths between breaks in
          control (mispredicted branches, indirect calls and their
          returns) into [gap_histogram] *)
  dump_arrays : string list;
      (** arrays whose final contents to return in [result.dumped]
          (e.g. the {!Fisher92_ir.Instrument.counters_array} of an
          instrumented build) *)
  engine : engine option;
      (** execution engine; [None] defers to {!default_engine} *)
}

val default_config : config
(** 500M instruction fuel, 4M outputs, no hooks, no gap tracking, the
    default engine. *)

val run :
  ?config:config ->
  Fisher92_ir.Program.t ->
  iargs:int list ->
  fargs:float list ->
  arrays:(string * [ `Ints of int array | `Floats of float array ]) list ->
  result
(** Execute the program's entry function.

    [iargs]/[fargs] must match the entry function's parameter counts.
    [arrays] seeds named global arrays before execution; a seed shorter
    than the declaration fills a prefix; unseeded cells hold the
    declaration's initial value (zero for ordinary arrays, the global's
    initializer for ["$global"] cells).

    @raise Trap on simulated-machine errors
    @raise Invalid_argument on argument/seed mismatches. *)
