(** The closure-threaded execution engine.

    Compiles each function's basic blocks once per run into
    continuation-chained closures — operands resolved, dispatch
    eliminated, branch hooks specialized, [Icmp; Br] tails fused, and
    register accesses unchecked — then runs them as one chain of tail
    calls per activation, with calls that allocate nothing.
    Bit-identical to the reference interpreter in {!Vm}: results, branch
    counters, break gaps, outputs, and trap messages all match;
    [test/test_exec.ml] asserts this differentially on every workload x
    dataset.

    Not called directly: {!Vm.run} dispatches here (or to the
    interpreter) after validating entry arguments and seeding memory. *)

open Fisher92_ir

val in_range : Program.t -> bool
(** One pass over the code: every register operand fits its function's
    register files, every parameter count fits them too, every array
    operand names a declared array, every branch site is below
    [Program.n_sites], and no direct call names a missing callee or
    passes it more arguments than it takes.  {!run} accesses registers
    and site counters without bounds checks, so {!Vm.run} sends a
    program that fails this check to the reference interpreter instead,
    even when [Threaded] is selected; the interpreter raises what a
    checked access would. *)

val run :
  config:Machine.config ->
  mem:Machine.mem_cell array ->
  Program.t ->
  iargs:int list ->
  fargs:float list ->
  Machine.result
(** Runs [p]'s entry function.  [p] must pass {!in_range}; [mem] must
    come from {!Machine.init_mem}; entry arguments must already be
    validated ({!Machine.check_entry_args}). *)
