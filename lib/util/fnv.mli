(** 64-bit FNV-1a hashing.

    The resilient database format and the program fingerprints need a
    cheap, dependency-free, stable-across-runs hash.  FNV-1a is not
    cryptographic — it defends against accidental corruption (bit rot,
    truncation, editor mangling), not against an adversary, which is all
    a local profile database needs. *)

val seed : int64
(** The FNV-1a offset basis. *)

val prime : int64
(** The FNV-1a multiplier: one byte [b] folds as
    [Int64.mul (Int64.logxor h (Int64.of_int b)) prime]. *)

val fold : int64 -> string -> int64
(** Mix a string into a running hash (byte by byte). *)

val hash : string -> int64
(** [fold seed s]. *)

val hash_strings : string list -> string
(** Hash a list of strings (each terminated, so that ["ab";"c"] and
    ["a";"bc"] differ) and render as 16 lowercase hex digits. *)

val to_hex : int64 -> string
(** 16 lowercase hex digits. *)

val hex : string -> string
(** [to_hex (hash s)] — the checksum form the database file stores. *)
