(** Deterministic synthetic input texts.

    Stand-ins for the paper's file inputs (C sources, FORTRAN sources,
    English-ish reference data, compiled images): byte streams with the
    right statistical character for the compression and compilation
    workloads.  Every generator is a pure function of its seed. *)

val c_source : seed:int -> lines:int -> int array
(** C-flavoured source text as bytes: declarations, assignments, braces,
    [if]/[for]/[while]/[return] keywords, operators, comments. *)

val fortran_source : seed:int -> lines:int -> int array
(** FORTRAN-flavoured source: column-6 continuation style, DO loops,
    uppercase keywords, arithmetic statements. *)

val english : seed:int -> words:int -> int array
(** English-like word salad with Zipf-ish word reuse — highly
    compressible, like the SPEC reference text. *)

val binary_image : seed:int -> size:int -> int array
(** Compiled-image-like bytes: structured header + mixed low-entropy
    tables and high-entropy code-ish sections. *)

val random_bytes : seed:int -> size:int -> int array
(** Incompressible noise (every byte uniform). *)

val to_bytes : string -> int array
(** Byte array of a string. *)
