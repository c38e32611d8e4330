(** Sparse conditional constant propagation over one whole program.

    A flow-sensitive constant analysis with edge feasibility: when a
    conditional branch's condition evaluates to a known constant, only
    the corresponding successor edge is marked executable, so constants
    keep propagating through code a constant guard makes one-sided.

    Soundness contract: the transfer functions are the {e same} OCaml
    expressions {!Fisher92_vm.Vm} evaluates — same operators, same
    truncation, same float primitives — evaluated in the same process,
    so a value proved constant here is the value the VM computes.
    Anything the analysis cannot see is bottom: entry arguments, array
    loads (datasets seed the arrays), call results, and divisions whose
    divisor may be zero (the VM would trap).  Registers start at the
    VM's zero-init, parameters at bottom. *)

(** What the analysis concluded about one branch site. *)
type fate =
  | Always_taken  (** every execution of the branch goes to the target *)
  | Always_not_taken  (** every execution falls through *)
  | Both  (** no constant claim *)
  | Unexecuted  (** no feasible path reaches the branch *)

val fate_name : fate -> string

type t = {
  fates : fate array;  (** per program branch site *)
  cond_const : int option array;
      (** per site: the proved constant value of the condition register
          at the branch, when there is one *)
}

val analyze : Fisher92_ir.Program.t -> Cfg.t array -> t
(** [analyze p cfgs], where [cfgs.(i)] is the CFG of [p.funcs.(i)]:
    {!Brclass.classify} hands over the CFGs it builds for the other
    analyses. *)
