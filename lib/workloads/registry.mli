(** The program sample base (paper Table 2): every workload in one list. *)

val all : unit -> Workload.t list
(** All fourteen workloads, FORTRAN/FP first, then C/Integer, in the
    paper's table order.  Dataset construction is deterministic; the list
    is built once and memoized. *)

val find : string -> Workload.t
(** Workload by name — the paper roster first, then registered extras.
    @raise Not_found. *)

val register_extra : Workload.t -> unit
(** Register an additional (synthetic/curated) workload.  Extras are
    visible to {!find} and {!extras} but never to {!all}: the paper
    roster is a fixed sample base that experiments and goldens iterate,
    and must not change shape because some library registered extras at
    init time.  Registration order is preserved.
    @raise Invalid_argument on a name clash with the roster or a
    previously registered extra. *)

val extras : unit -> Workload.t list
(** All registered extras, in registration order. *)

val fortran_fp : unit -> Workload.t list
val c_integer : unit -> Workload.t list
