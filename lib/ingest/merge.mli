(** The sharded in-memory accumulator between the WAL and the database.

    Counters live in full-size per-label arrays.  Shard [k] owns every
    site congruent to [k] modulo the shard count and has its own lock,
    so concurrent submitters touching disjoint shards never contend —
    there is no global counter lock.  Adds saturate at [max_int],
    preserving [taken <= encountered] under any traffic. *)

type t

val create : ?shards:int -> n_sites:int -> unit -> t
(** [shards] defaults to the [FISHER92_SHARDS] knob (16).
    @raise Invalid_argument outside [1..256]. *)

val n_shards : t -> int
val n_sites : t -> int

val merge : t -> label:string -> int array -> int array -> int array -> unit
(** [merge t ~label sites enc taken] folds the increments
    [(sites.(i), enc.(i), taken.(i))] into [label]'s counters.
    Thread-safe; locks each touched shard exactly once, in ascending
    order.  @raise Invalid_argument, before any counter moves, on arrays
    of different lengths, out-of-range sites or
    [taken > encountered]. *)

val snapshot : t -> (string * int array * int array) list
(** Copies of every label's [(encountered, taken)] arrays, sorted by
    label.  Reads shards without locking — only sound when no
    {!merge} is in flight (the service's compaction gate guarantees
    that). *)

val clear : t -> unit
(** Drop all counters — what compaction does after folding a snapshot
    into the database. *)

val total : t -> int
(** Sum of all encountered counters (diagnostics; quiescence caveat of
    {!snapshot} applies). *)
