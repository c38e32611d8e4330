(** Interval (value-range) dataflow over one function's integer
    registers, with widening at loop headers.

    Every integer register is tracked as a closed interval whose bounds
    use [min_int]/[max_int] as the -oo/+oo sentinels.  Transfer
    functions are exact where native-int arithmetic cannot wrap and
    degrade to top where it can (the VM wraps silently, so a clamped
    bound would be unsound).  Branch edges are refined by tracing the
    condition register back to its defining compare inside the block —
    the same walk the Ball-Larus heuristics use, hardened with
    redefinition checks — and an edge whose refinement is contradictory
    (empty interval) is infeasible and propagates nothing.

    Termination: the interval lattice has unbounded descending chains,
    so after a block's entry environment has been refed a few times the
    incoming join is widened to the sentinels.  Widening applies at
    natural-loop headers (the only blocks that can see their own output
    in a reducible CFG) and, as a backstop for irreducible hand-written
    IR, at any block updated more than a hard cap. *)

type interval = { lo : int; hi : int }
(** Invariant: [lo <= hi].  [lo = min_int] means unbounded below,
    [hi = max_int] unbounded above. *)

val top : interval
val const : int -> interval
val is_const : interval -> int option
val mem : int -> interval -> bool
val join : interval -> interval -> interval
val inter : interval -> interval -> interval option
(** Intersection; [None] when empty. *)

val to_string : interval -> string
(** ["[0, 7]"], with ["-inf"]/["+inf"] for the sentinels. *)

val negate_cmp : Fisher92_ir.Insn.cmp -> Fisher92_ir.Insn.cmp
(** The complement relation (Lt <-> Ge, etc). *)

val defines_ireg : int -> Fisher92_ir.Insn.insn -> bool
(** Does the instruction write this integer register? *)

type t

val analyze : Fisher92_ir.Program.func -> Cfg.t -> Dom.t -> Loops.t -> t

val executable : t -> int -> bool
(** Did any feasible path reach this block? *)

val env_at : t -> pc:int -> interval array
(** The per-integer-register environment just {e before} [pc], i.e. the
    block's entry environment pushed through the instructions above it.
    The block must be {!executable}. *)

val edge_env : t -> int -> int -> interval array option
(** [edge_env t u v]: the environment on CFG edge [u -> v] after branch
    refinement; [None] when the edge is infeasible or never reached.
    Each call re-runs [u] from its final entry environment. *)

val cond_cmp :
  Fisher92_ir.Program.func ->
  Cfg.block ->
  (Fisher92_ir.Insn.cmp * int * int * bool * int) option
(** For a block ending in [Br {cond; _}]: trace [cond] backwards through
    moves and logical nots to a defining integer compare in the same
    block.  Returns [(cmp, a, b, flipped, cmp_pc)] — branch taken iff
    [cmp a b] XOR [flipped] — only when neither [a] nor [b] is redefined
    between the compare and the branch, so the relation still holds at
    the branch. *)
